//! The three workloads as run sets: the simulations and checks one pass
//! makes, each called through the simulator's public API.

use std::hint::black_box;

use slipstream::check::{
    analyze, cross_validate, instantiate_workload, run_checked, verify_workload, Analysis,
    AnalysisConfig, CheckReport, Diagnostic, Severity, TaskSet, ValidationReport,
};
use slipstream::core::{run, run_full, HostProfile, HostProfileData, RunOutput};
use slipstream::gen::corpus;
use slipstream::workloads::{paper_suite, quick_suite, Sor};
use slipstream::{
    ArSyncMode, ExecMode, MachineConfig, RunResult, RunSpec, SlipstreamConfig, Workload,
};

use crate::checks::Outcome;
use crate::spans::Spans;

/// Master seed of the held-out corpus: kept out of tuning and used only
/// to confirm a claim after it was made on the default seed.
pub const HELD_OUT_SEED: u64 = 0x0DDB_A11C;

/// CMPs of every `checked_corpus` run.
const CORPUS_NODES: u16 = 4;

/// The benchmark's workloads. One runs per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Paper16,
    Scale256,
    CheckedCorpus,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Paper16, Kind::Scale256, Kind::CheckedCorpus];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Paper16 => "paper16",
            Kind::Scale256 => "scale256",
            Kind::CheckedCorpus => "checked_corpus",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Problem sizes of the run sets. [`Size::FULL`] is what the benchmark
/// measures; the tests run the same code at [`Size::TINY`].
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub paper_nodes: u16,
    /// Quick-suite sizes in place of Table 2's.
    pub paper_quick: bool,
    pub scale_nodes: u16,
    pub corpus_count: usize,
}

impl Size {
    pub const FULL: Size = Size {
        paper_nodes: 16,
        paper_quick: false,
        scale_nodes: 256,
        corpus_count: corpus::CORPUS_COUNT,
    };
    pub const TINY: Size = Size {
        paper_nodes: 2,
        paper_quick: true,
        scale_nodes: 8,
        corpus_count: 6,
    };
}

/// What one run-set item does.
#[derive(Debug, Clone)]
enum Job {
    /// One plain simulation.
    Sim(RunSpec),
    /// `verify_workload` on the slipstream task set, then `analyze` on the
    /// conventional one; any error-severity diagnostic fails the item.
    Static { ntasks: usize },
    /// One run under the protocol checker; a violation fails the item.
    Checked(RunSpec),
    /// Static analysis cross-validated against an instrumented
    /// single-mode run; a prediction the run contradicts fails the item.
    Xval { ntasks: usize },
}

#[derive(Debug, Clone)]
pub struct Item {
    pub label: String,
    workload: usize,
    job: Job,
    /// Run in the traced pass only (the 2-worker PDES leg).
    pub traced_only: bool,
}

/// Per-layer figures gathered from `HostProfile` and `RunResult`s in the
/// traced pass. Span times are kept by [`Spans`].
#[derive(Debug, Default, Clone)]
pub(crate) struct Layers {
    pub prog_ops: u64,
    pub events: u64,
    pub core_build_s: f64,
    pub core_simulate_s: f64,
    pub serial_s: f64,
    pub pdes1_s: f64,
    /// Indexed by worker count - 1.
    pub pdes: [PdesLayer; 2],
    pub queue_pushes: u64,
    pub heap_pushes: u64,
    pub queue_high_water: u64,
    pub l1_hits: u64,
    pub l2_misses: u64,
    pub remote_txns: u64,
    pub net_messages: u64,
    pub invalidations: u64,
    pub contention_wait_cycles: u64,
    pub barrier_cycles: u64,
    pub lock_cycles: u64,
    pub ar_sync_cycles: u64,
    pub recoveries: u64,
    pub a_timely: u64,
    pub a_reads: u64,
}

#[derive(Debug, Default, Clone)]
pub(crate) struct PdesLayer {
    pub busy_s: f64,
    pub wait_s: f64,
    pub epochs: u64,
    pub imbalance: f64,
}

impl Layers {
    fn record_core(&mut self, threads: u16, wall_s: f64, p: &HostProfileData, r: &RunResult) {
        if threads == 0 {
            self.serial_s += wall_s;
        } else {
            self.pdes1_s += wall_s;
        }
        self.events += r.host_events;
        self.core_build_s += p.phases.build_s;
        self.core_simulate_s += p.phases.simulate_s;
        self.queue_pushes += p.queue.total_pushed;
        self.heap_pushes += p.queue.heap_pushes;
        self.queue_high_water = self.queue_high_water.max(p.queue.high_water);
        let m = &r.mem;
        self.l1_hits += m.l1_hits;
        self.l2_misses += m.l2_misses;
        self.remote_txns += m.remote_txns;
        self.net_messages += m.net_messages;
        self.invalidations += m.invalidations_sent;
        self.contention_wait_cycles += m
            .contention
            .named()
            .iter()
            .map(|(_, u)| u.wait_cycles)
            .sum::<u64>();
        for s in &r.streams {
            self.barrier_cycles += s.breakdown.barrier;
            self.lock_cycles += s.breakdown.lock;
            self.ar_sync_cycles += s.breakdown.ar_sync;
        }
        self.recoveries += r.recoveries;
        let reads = &m.class.reads;
        self.a_timely += reads.a_timely;
        self.a_reads += reads.a_timely + reads.a_late + reads.a_only;
        if threads >= 1 {
            self.record_pdes(threads, p);
        }
    }

    fn record_pdes(&mut self, threads: u16, p: &HostProfileData) {
        let k = &mut self.pdes[threads as usize - 1];
        k.busy_s += p.workers.iter().map(|w| w.busy_ns).sum::<u64>() as f64 * 1e-9;
        k.wait_s += p.workers.iter().map(|w| w.wait_ns).sum::<u64>() as f64 * 1e-9;
        k.epochs += p.workers.iter().map(|w| w.epochs).max().unwrap_or(0);
        k.imbalance = k.imbalance.max(p.imbalance_ratio());
    }
}

pub struct RunSet {
    workloads: Vec<Box<dyn Workload>>,
    pub items: Vec<Item>,
    /// `(K=1 item, K=2 item)`: the parallel engine must give bit-identical
    /// results for every worker count.
    pub engine_pairs: Vec<(usize, usize)>,
}

/// The machine the runner derives for `w` when the spec gives none.
fn machine_for(w: &dyn Workload, nodes: u16) -> MachineConfig {
    if w.small_l2() {
        MachineConfig::water(nodes)
    } else {
        MachineConfig::with_nodes(nodes)
    }
}

fn si_spec(nodes: u16) -> RunSpec {
    RunSpec::new(nodes, ExecMode::Slipstream).with_slip(SlipstreamConfig::with_self_invalidation(
        ArSyncMode::OneTokenGlobal,
    ))
}

impl RunSet {
    /// Constructs the workloads and the item list. On `checked_corpus`
    /// this generates the corpus from `seed`, under a `gen.corpus` span.
    pub fn build(kind: Kind, size: Size, seed: u64, spans: &mut Spans) -> RunSet {
        let mut set = RunSet {
            workloads: Vec::new(),
            items: Vec::new(),
            engine_pairs: Vec::new(),
        };
        match kind {
            Kind::Paper16 => {
                set.workloads = if size.paper_quick {
                    quick_suite()
                } else {
                    paper_suite()
                };
                let n = size.paper_nodes;
                let modes = [
                    ("single", RunSpec::new(n, ExecMode::Single)),
                    ("double", RunSpec::new(n, ExecMode::Double)),
                    ("slipstream", RunSpec::new(n, ExecMode::Slipstream)),
                    ("slipstream+si", si_spec(n)),
                ];
                for w in 0..set.workloads.len() {
                    for (mode, spec) in &modes {
                        let label = format!("{}/{mode}/{n}", set.workloads[w].name());
                        set.push(label, w, Job::Sim(spec.clone()), false);
                    }
                }
            }
            Kind::Scale256 => {
                let n = size.scale_nodes;
                set.workloads = vec![Box::new(Sor::scaled(n))];
                let spec = RunSpec::new(n, ExecMode::Slipstream);
                set.push(
                    format!("SOR/slipstream/{n}/serial"),
                    0,
                    Job::Sim(spec.clone()),
                    false,
                );
                let k1 = set.push(
                    format!("SOR/slipstream/{n}/pdes1"),
                    0,
                    Job::Sim(spec.clone().with_threads(1)),
                    false,
                );
                let k2 = set.push(
                    format!("SOR/slipstream/{n}/pdes2"),
                    0,
                    Job::Sim(spec.with_threads(2)),
                    true,
                );
                set.engine_pairs.push((k1, k2));
            }
            Kind::CheckedCorpus => {
                let programs = spans.span("gen.corpus", "corpus", |_| {
                    corpus::corpus(seed, size.corpus_count)
                });
                let n = CORPUS_NODES;
                let ntasks = n as usize;
                for (w, prog) in programs.into_iter().enumerate() {
                    let name = prog.name().to_string();
                    set.workloads.push(Box::new(prog));
                    set.push(format!("{name}/static"), w, Job::Static { ntasks }, false);
                    set.push(
                        format!("{name}/checked"),
                        w,
                        Job::Checked(si_spec(n)),
                        false,
                    );
                    set.push(format!("{name}/xval"), w, Job::Xval { ntasks }, false);
                }
            }
        }
        set
    }

    fn push(&mut self, label: String, workload: usize, job: Job, traced_only: bool) -> usize {
        self.items.push(Item {
            label,
            workload,
            job,
            traced_only,
        });
        self.items.len() - 1
    }

    fn workload(&self, item: &Item) -> &dyn Workload {
        self.workloads[item.workload].as_ref()
    }

    /// `(nodes, ntasks, slipstream)` of the task set a run spec builds.
    fn shape(spec: &RunSpec) -> (u16, usize, bool) {
        match spec.mode {
            ExecMode::Single => (spec.nodes, spec.nodes as usize, false),
            ExecMode::Double => (spec.nodes, 2 * spec.nodes as usize, false),
            ExecMode::Slipstream => (spec.nodes, spec.nodes as usize, true),
        }
    }

    /// `Workload::instantiate` plus one builder call per stream, as the
    /// runner does for a run under `spec`.
    fn build_tasks(w: &dyn Workload, (nodes, ntasks, slipstream): (u16, usize, bool)) -> TaskSet {
        instantiate_workload(w, machine_for(w, nodes).page_bytes, ntasks, slipstream)
    }

    /// Builds the task programs of every run spec in the untraced run set
    /// and drops them: the part of setup that happens per run.
    pub fn instantiate_all(&self) -> usize {
        let mut programs = 0;
        for item in self.items.iter().filter(|i| !i.traced_only) {
            let shape = match &item.job {
                Job::Sim(spec) | Job::Checked(spec) => Self::shape(spec),
                Job::Xval { ntasks } => (*ntasks as u16, *ntasks, false),
                Job::Static { .. } => continue,
            };
            let set = black_box(Self::build_tasks(self.workload(item), shape));
            programs += set.r.len() + set.a.len();
        }
        programs
    }

    /// Runs item `i` untraced, with `HostProfile` off.
    pub fn run_item(&self, i: usize) -> Result<Outcome, String> {
        let item = &self.items[i];
        let w = self.workload(item);
        match &item.job {
            Job::Sim(spec) => Ok(Outcome {
                results: vec![run(w, spec)],
                report: String::new(),
            }),
            Job::Static { ntasks } => {
                let diags = verify_workload(w, *ntasks, true);
                let set = Self::build_tasks(w, (*ntasks as u16, *ntasks, false));
                let analysis = analyze(&set, &analysis_config(w, *ntasks));
                static_outcome(diags, analysis)
            }
            Job::Checked(spec) => {
                let (result, report) = run_checked(w, spec);
                checked_outcome(result, report)
            }
            Job::Xval { ntasks } => xval_outcome(cross_validate(w, *ntasks)),
        }
    }

    /// Runs item `i` with a span around each call into a layer, and the
    /// simulations profiled. Gives the same [`Outcome`] as
    /// [`RunSet::run_item`].
    pub(crate) fn run_item_traced(
        &self,
        i: usize,
        spans: &mut Spans,
        layers: &mut Layers,
    ) -> Result<Outcome, String> {
        let item = &self.items[i];
        let w = self.workload(item);
        let label = item.label.as_str();
        spans.span("item", label, |spans| match &item.job {
            Job::Sim(spec) if item.traced_only => {
                let (out, _) = profiled_run(w, spec, spans, "pdes.k2_run", label);
                layers.record_pdes(
                    spec.threads,
                    out.profile.as_ref().expect("profiling was on"),
                );
                Ok(Outcome {
                    results: vec![out.result],
                    report: String::new(),
                })
            }
            Job::Sim(spec) => {
                let result = self.traced_run(w, spec, spans, layers, label);
                Ok(Outcome {
                    results: vec![result],
                    report: String::new(),
                })
            }
            Job::Static { ntasks } => {
                let diags =
                    spans.span("check.verify", label, |_| verify_workload(w, *ntasks, true));
                let set = spans.span("workloads.build", label, |_| {
                    Self::build_tasks(w, (*ntasks as u16, *ntasks, false))
                });
                let analysis = spans.span("check.analyze", label, |_| {
                    analyze(&set, &analysis_config(w, *ntasks))
                });
                static_outcome(diags, analysis)
            }
            Job::Checked(spec) => {
                // Runs of the same spec without the observer, which the
                // untraced pass does not make: a profiled one for the
                // core and memory layers, and a plain one as the base of
                // `check.observer_overhead`. Both must equal the checked
                // run.
                let (profiled, plain) = spans.span("check.twin", label, |spans| {
                    let profiled = self.traced_run(w, spec, spans, layers, label);
                    let plain = spans.span("check.plain_run", label, |_| run(w, spec));
                    (profiled, plain)
                });
                let (result, report) =
                    spans.span("check.checked_run", label, |_| run_checked(w, spec));
                if result != plain || result != profiled {
                    return Err("checked run differs from the unobserved run".to_string());
                }
                checked_outcome(result, report)
            }
            Job::Xval { ntasks } => {
                xval_outcome(spans.span("check.xval", label, |_| cross_validate(w, *ntasks)))
            }
        })
    }

    /// Build, program drain and profiled run of one spec, each in its own
    /// span.
    fn traced_run(
        &self,
        w: &dyn Workload,
        spec: &RunSpec,
        spans: &mut Spans,
        layers: &mut Layers,
        label: &str,
    ) -> RunResult {
        let set = spans.span("workloads.build", label, |_| {
            Self::build_tasks(w, Self::shape(spec))
        });
        layers.prog_ops += spans.span("prog.drain", label, |_| {
            set.r
                .iter()
                .chain(&set.a)
                .map(|t| t.prog.count_ops())
                .sum::<u64>()
        });
        drop(set);
        let (out, wall_s) = profiled_run(w, spec, spans, "core.run", label);
        let profile = out.profile.as_ref().expect("profiling was on");
        layers.record_core(spec.threads, wall_s, profile, &out.result);
        out.result
    }
}

fn profiled_run(
    w: &dyn Workload,
    spec: &RunSpec,
    spans: &mut Spans,
    name: &'static str,
    label: &str,
) -> (RunOutput, f64) {
    let spec = spec.clone().with_host_profile(HostProfile::enabled());
    spans.timed(name, label, |_| run_full(w, &spec))
}

fn analysis_config(w: &dyn Workload, ntasks: usize) -> AnalysisConfig {
    let line_bytes = machine_for(w, ntasks as u16).l2.line_bytes;
    AnalysisConfig {
        line_bytes,
        ..AnalysisConfig::default()
    }
}

fn static_outcome(diags: Vec<Diagnostic>, analysis: Analysis) -> Result<Outcome, String> {
    if let Some(d) = diags
        .iter()
        .chain(&analysis.diagnostics)
        .find(|d| d.severity == Severity::Error)
    {
        return Err(format!("static error: {d}"));
    }
    Ok(Outcome {
        results: Vec::new(),
        report: format!("{diags:?}{analysis:?}"),
    })
}

fn checked_outcome(result: RunResult, report: CheckReport) -> Result<Outcome, String> {
    if !report.ok() {
        return Err(format!("protocol checker: {}", report.summary()));
    }
    Ok(Outcome {
        results: vec![result],
        report: format!("{:?}", report.counts),
    })
}

fn xval_outcome(report: ValidationReport) -> Result<Outcome, String> {
    if !report.ok {
        return Err(format!(
            "cross-validation: {}",
            report
                .first_failure()
                .unwrap_or_else(|| report.workload.clone())
        ));
    }
    Ok(Outcome {
        results: Vec::new(),
        report: format!("{report:?}"),
    })
}
