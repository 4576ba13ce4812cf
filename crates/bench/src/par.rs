//! Parallel sweep executor for the figure binaries.
//!
//! Every figure of the paper is a grid of independent simulations
//! (workload × mode × nodes × slipstream config). A [`Plan`] declares that
//! grid as a list of cells; [`Plan::execute`] deduplicates cells that
//! request the same run (shared single/double baselines appear in several
//! figures), fans the unique runs out over host threads with
//! `std::thread::scope`, and returns results **in plan order** — so output
//! is deterministic and independent of the number of jobs.
//!
//! Each simulation itself stays single-threaded and bit-for-bit
//! reproducible; parallelism exists only between independent runs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use slipstream_core::{
    host_note, run, run_full, run_observed, ExecMode, HostProfile, HostProfileData,
    MachineConfig, RunResult, RunSpec, SlipstreamConfig, Workload,
};

/// Structured identity of one simulation cell: everything that influences
/// the result. Used as the dedup/cache key (replacing the former
/// `format!("{:?}", …)` string keys, which allocated per lookup and would
/// silently collide or diverge if a `Debug` impl changed).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// Workload name (workloads are identified by name + the suite's
    /// problem size, which the caller fixes via `--quick`).
    pub name: String,
    /// CMP count.
    pub nodes: u16,
    /// Execution mode.
    pub mode: ExecMode,
    /// Slipstream knobs (ignored by the simulator outside slipstream mode,
    /// but part of the spec, so kept: identical results cached under one
    /// entry require identical specs).
    pub slip: SlipstreamConfig,
    /// Machine override, if any.
    pub machine: Option<MachineConfig>,
    /// Private-work batching quantum.
    pub quantum_cycles: u64,
    /// Cost of an `Input` op.
    pub input_cycles: u64,
    /// Intra-run worker threads. `0` (serial engine) and `K >= 1`
    /// (parallel engine) are distinct keys because the engines may differ
    /// in host-side accounting; all `K >= 1` produce bit-identical
    /// results, but figure binaries use one uniform `K`, so no dedup is
    /// lost by keeping the exact value.
    pub threads: u16,
    /// Directory scheme override, if any (`None` keeps the machine's
    /// default full-map directory). Limited-pointer runs change protocol
    /// traffic, so they must never dedup against full-map runs.
    pub dir_scheme: Option<slipstream_core::DirScheme>,
}

impl RunKey {
    /// The key identifying `workload` run under `spec`.
    pub fn new(workload: &dyn Workload, spec: &RunSpec) -> RunKey {
        RunKey {
            name: workload.name().to_string(),
            nodes: spec.nodes,
            mode: spec.mode,
            slip: spec.slip,
            machine: spec.machine.clone(),
            quantum_cycles: spec.quantum_cycles,
            input_cycles: spec.input_cycles,
            threads: spec.threads,
            dir_scheme: spec.dir_scheme,
        }
    }
}

/// A declarative list of `(workload, spec)` simulation cells.
///
/// Cells may repeat (e.g. the single-mode baseline of every figure row);
/// execution runs each distinct cell once.
#[derive(Default)]
pub struct Plan<'w> {
    cells: Vec<(&'w dyn Workload, RunSpec)>,
}

impl<'w> Plan<'w> {
    /// An empty plan.
    pub fn new() -> Plan<'w> {
        Plan { cells: Vec::new() }
    }

    /// Appends one cell.
    pub fn add(&mut self, workload: &'w dyn Workload, spec: RunSpec) {
        self.cells.push((workload, spec));
    }

    /// Number of cells (including duplicates).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the plan has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Cells and their dedup keys, in plan order.
    pub fn keys(&self) -> impl Iterator<Item = RunKey> + '_ {
        self.cells.iter().map(|(w, spec)| RunKey::new(*w, spec))
    }

    /// A copy of the plan with `threads` intra-run workers applied to
    /// every cell that doesn't already set its own count. The figure
    /// binaries use this to fan `--threads` out over a whole grid.
    pub fn with_threads(&self, threads: u16) -> Plan<'w> {
        Plan {
            cells: self
                .cells
                .iter()
                .map(|(w, spec)| {
                    let mut spec = spec.clone();
                    if spec.threads == 0 {
                        spec.threads = threads;
                    }
                    (*w, spec)
                })
                .collect(),
        }
    }

    /// A copy of the plan with host profiling applied to every cell that
    /// doesn't already enable it (`--host-profile` on the figure
    /// binaries). Profiling is not part of [`RunKey`] — it cannot change
    /// results — so dedup is unaffected.
    pub fn with_host(&self, host: &HostProfile) -> Plan<'w> {
        Plan {
            cells: self
                .cells
                .iter()
                .map(|(w, spec)| {
                    let mut spec = spec.clone();
                    if !spec.host.is_on() {
                        spec.host = host.clone();
                    }
                    (*w, spec)
                })
                .collect(),
        }
    }

    /// Executes the plan on up to `jobs` worker threads and returns one
    /// result per cell, in plan order.
    ///
    /// Duplicate cells are simulated once and the result is cloned into
    /// each requesting position. Work is handed out through an atomic
    /// cursor, so threads stay busy regardless of per-run cost; the result
    /// order (and every simulated number) is independent of `jobs`.
    pub fn execute(&self, jobs: usize) -> Vec<RunResult> {
        self.execute_opts(jobs, false)
    }

    /// [`Plan::execute`] with the coherence invariant checker optionally
    /// attached to every run (`--check` on the figure binaries).
    ///
    /// Checked runs are bit-identical to unchecked ones; a protocol
    /// violation prints the report and panics, failing the figure loudly
    /// rather than rendering numbers from a run the checker rejected.
    pub fn execute_opts(&self, jobs: usize, check: bool) -> Vec<RunResult> {
        self.execute_collect(jobs, check).into_iter().map(|(r, _)| r).collect()
    }

    /// [`Plan::execute_opts`], additionally returning each cell's host
    /// profile (`Some` only for cells whose spec enables `host` — see
    /// [`Plan::with_host`]). Duplicate cells share the first occurrence's
    /// profile, like they share its result.
    pub fn execute_collect(
        &self,
        jobs: usize,
        check: bool,
    ) -> Vec<(RunResult, Option<HostProfileData>)> {
        type CellOut = (RunResult, Option<HostProfileData>);
        // Dedup: map every cell to the first cell with the same key.
        let mut first_of: HashMap<RunKey, usize> = HashMap::new();
        let mut unique: Vec<usize> = Vec::new(); // cell index of each unique run
        let mut cell_slot: Vec<usize> = Vec::with_capacity(self.cells.len());
        for (i, (w, spec)) in self.cells.iter().enumerate() {
            let key = RunKey::new(*w, spec);
            let slot = *first_of.entry(key).or_insert_with(|| {
                unique.push(i);
                unique.len() - 1
            });
            cell_slot.push(slot);
        }

        let slots: Vec<Mutex<Option<CellOut>>> =
            unique.iter().map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let mut workers = jobs.max(1).min(unique.len().max(1));
        // Over-subscription guard: when cells themselves run multi-threaded
        // (RunSpec::threads), jobs × sim-threads can exceed the host and
        // every run slows down. Cap jobs so the product fits, unless the
        // caller explicitly opts in via SLIP_OVERSUBSCRIBE=1.
        let max_threads = unique
            .iter()
            .map(|&i| self.cells[i].1.threads.max(1) as usize)
            .max()
            .unwrap_or(1);
        let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        if workers * max_threads > host && std::env::var_os("SLIP_OVERSUBSCRIBE").is_none() {
            let capped = (host / max_threads).max(1).min(workers);
            if capped < workers {
                host_note!(
                    "  [capping jobs {workers} -> {capped}: {workers} jobs x {max_threads} sim \
                     threads would oversubscribe {host} host cpus; set SLIP_OVERSUBSCRIBE=1 to \
                     override]"
                );
                workers = capped;
            }
        }
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let u = cursor.fetch_add(1, Ordering::Relaxed);
                    if u >= unique.len() {
                        break;
                    }
                    let (w, spec) = &self.cells[unique[u]];
                    let started = std::time::Instant::now();
                    let out = run_cell_full(*w, spec, check);
                    host_note!(
                        "  [ran {} {} @{} CMPs in {:.1}s: {} cycles]",
                        w.name(),
                        spec.mode,
                        spec.nodes,
                        started.elapsed().as_secs_f64(),
                        out.0.exec_cycles
                    );
                    *slots[u].lock().expect("result slot poisoned") = Some(out);
                });
            }
        });

        cell_slot
            .iter()
            .map(|&slot| {
                slots[slot]
                    .lock()
                    .expect("result slot poisoned")
                    .clone()
                    .expect("every unique cell was executed")
            })
            .collect()
    }
}

/// Runs one cell, returning the host profile alongside the result (`Some`
/// only when `spec.host` is on). Checked runs attach the protocol
/// checker directly so the profile survives; the checker verdict
/// evaluation is charged to the profile's `check_s` phase.
///
/// # Panics
///
/// Panics if the checker reports any violation (after printing the full
/// report to stderr).
pub(crate) fn run_cell_full(
    w: &dyn Workload,
    spec: &RunSpec,
    check: bool,
) -> (RunResult, Option<HostProfileData>) {
    if !check {
        if !spec.host.is_on() {
            return (run(w, spec), None);
        }
        let out = run_full(w, spec);
        return (out.result, out.profile);
    }
    let (mut out, checker) = run_observed(w, spec, slipstream_check::ProtocolChecker::new());
    let check_started = std::time::Instant::now();
    let report = checker.finish();
    if let Some(p) = out.profile.as_mut() {
        p.phases.check_s = check_started.elapsed().as_secs_f64();
    }
    if !report.ok() {
        for v in &report.violations {
            eprintln!("{} {v}", w.name());
        }
        panic!(
            "protocol checker rejected {} {} @{} CMPs: {}",
            w.name(),
            spec.mode,
            spec.nodes,
            report.summary()
        );
    }
    (out.result, out.profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slipstream_workloads::by_name;

    #[test]
    fn dedup_counts_unique_cells_once() {
        let w = by_name("SOR", true).expect("quick SOR");
        let mut plan = Plan::new();
        plan.add(w.as_ref(), RunSpec::new(2, ExecMode::Single));
        plan.add(w.as_ref(), RunSpec::new(2, ExecMode::Single)); // duplicate
        plan.add(w.as_ref(), RunSpec::new(2, ExecMode::Double));
        let keys: Vec<RunKey> = plan.keys().collect();
        assert_eq!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        let results = plan.execute(2);
        assert_eq!(results.len(), 3);
        // The duplicate positions carry the same (cloned) result.
        assert_eq!(results[0].exec_cycles, results[1].exec_cycles);
        assert_eq!(results[0].mem, results[1].mem);
    }

    #[test]
    fn with_threads_respects_explicit_cell_counts() {
        let w = by_name("SOR", true).expect("quick SOR");
        let mut plan = Plan::new();
        plan.add(w.as_ref(), RunSpec::new(2, ExecMode::Single)); // inherits
        plan.add(w.as_ref(), RunSpec::new(2, ExecMode::Single).with_threads(4)); // keeps 4
        let threaded = plan.with_threads(2);
        let keys: Vec<RunKey> = threaded.keys().collect();
        assert_eq!(keys[0].threads, 2);
        assert_eq!(keys[1].threads, 4);
        // The serial and threaded variants of the same cell are distinct
        // keys: the engines may differ in host-side accounting.
        let serial_key: Vec<RunKey> = plan.keys().collect();
        assert_ne!(serial_key[0], keys[0]);
    }

    #[test]
    fn plan_order_is_independent_of_jobs() {
        fn mk<'w>(plan: &mut Plan<'w>, w: &'w dyn Workload) {
            plan.add(w, RunSpec::new(2, ExecMode::Single));
            plan.add(w, RunSpec::new(2, ExecMode::Double));
            plan.add(w, RunSpec::new(2, ExecMode::Slipstream));
        }
        let w = by_name("SOR", true).expect("quick SOR");
        let mut p1 = Plan::new();
        mk(&mut p1, w.as_ref());
        let mut p4 = Plan::new();
        mk(&mut p4, w.as_ref());
        let serial = p1.execute(1);
        let parallel = p4.execute(4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.exec_cycles, b.exec_cycles);
            assert_eq!(a.mem, b.mem);
            assert_eq!(a.recoveries, b.recoveries);
        }
    }
}
