//! Shared harness code for the figure-reproduction binaries.
//!
//! Each `bin` target regenerates one table or figure of the paper; run
//! them with `cargo run -p slipstream-bench --release --bin figN`.
//! Common flags:
//!
//! * `--quick` — reduced problem sizes (same shapes, faster);
//! * `--bench NAME` — restrict to one benchmark;
//! * `--nodes N[,N...]` — override the CMP-count sweep;
//! * `--jobs N` — worker threads for the simulation grid (defaults to the
//!   host's available parallelism; results are identical for any value);
//! * `--threads K` — worker threads *inside* each simulation (the
//!   conservative parallel engine; results are bit-identical for any
//!   `K >= 1`, `0` = classic serial loop);
//! * `--check` — attach the coherence invariant checker
//!   ([`slipstream_check::ProtocolChecker`]) to every run; a violation
//!   fails the figure instead of rendering suspect numbers.
//! * `--host-profile [DIR]` — profile the simulator itself
//!   ([`slipstream_core::telemetry`]): per-run host profiles are printed
//!   as tables on stderr and, when `DIR` is given, exported as
//!   `DIR/host_profile.json`. Results are bit-identical with profiling
//!   on or off.
//! * `--heartbeat SECS` — periodic progress line per run on stderr
//!   (events/s, elapsed); implies profile collection (not export).
//! * `--quiet` — silence progress narration on stderr (per-run lines,
//!   CPU-cap warnings, heartbeat); figure output and errors still print.
//!
//! The binaries follow one pattern: declare the full grid of runs as a
//! [`Plan`], execute it across cores with [`Runner::prewarm`], then render
//! the figure from the warm cache.

use std::collections::HashMap;

use slipstream_core::{
    host_note, telemetry, ArSyncMode, ExecMode, HostProfile, HostProfileData, RunResult, RunSpec,
    SlipstreamConfig, Workload,
};
use slipstream_workloads::{paper_suite, quick_suite};

mod par;

pub use par::{Plan, RunKey};

/// Parsed command-line options shared by every figure binary.
#[derive(Debug, Clone, Default)]
pub struct Cli {
    /// Use reduced problem sizes.
    pub quick: bool,
    /// Restrict to one benchmark (case-insensitive).
    pub only: Option<String>,
    /// Override the node-count sweep.
    pub nodes: Option<Vec<u16>>,
    /// Worker threads for executing the simulation grid.
    pub jobs: Option<usize>,
    /// Worker threads inside each simulation (`RunSpec::threads`); `0`
    /// (default) is the serial event loop.
    pub threads: u16,
    /// Run every simulation with the protocol invariant checker attached.
    pub check: bool,
    /// Collect host profiles for every run (`--host-profile`).
    pub host_profile: bool,
    /// Directory to write `host_profile.json` into (the optional value of
    /// `--host-profile [DIR]`).
    pub host_profile_dir: Option<String>,
    /// Heartbeat period in seconds (`--heartbeat SECS`, 0 = off). Implies
    /// profile collection, not export.
    pub heartbeat: f64,
    /// Silence progress narration on stderr (`--quiet`).
    pub quiet: bool,
}

impl Cli {
    /// Parses `std::env::args()`.
    ///
    /// # Panics
    ///
    /// Panics (with a usage message) on malformed arguments.
    pub fn parse() -> Cli {
        let mut cli = Cli::default();
        let mut args = std::env::args().skip(1).peekable();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => cli.quick = true,
                "--bench" => {
                    cli.only = Some(args.next().expect("--bench needs a name"));
                }
                "--nodes" => {
                    let v = args.next().expect("--nodes needs a list, e.g. 2,4,8,16");
                    cli.nodes = Some(
                        v.split(',')
                            .map(|s| s.parse().expect("node counts are integers"))
                            .collect(),
                    );
                }
                "--jobs" => {
                    let v = args.next().expect("--jobs needs a thread count");
                    cli.jobs = Some(v.parse().expect("--jobs takes an integer"));
                }
                "--threads" => {
                    let v = args.next().expect("--threads needs a worker count");
                    cli.threads = v.parse().expect("--threads takes an integer");
                }
                "--check" => cli.check = true,
                "--host-profile" => {
                    cli.host_profile = true;
                    // The directory operand is optional: a following token
                    // that isn't a flag is the export destination.
                    if args.peek().is_some_and(|v| !v.starts_with('-')) {
                        cli.host_profile_dir = args.next();
                    }
                }
                "--heartbeat" => {
                    let v = args.next().expect("--heartbeat needs a period in seconds");
                    cli.heartbeat = v.parse().expect("--heartbeat takes a number of seconds");
                }
                "--quiet" => cli.quiet = true,
                other => panic!(
                    "unknown flag {other}; supported: --quick --bench NAME --nodes N,N --jobs N \
                     --threads K --check --host-profile [DIR] --heartbeat SECS --quiet"
                ),
            }
        }
        telemetry::set_quiet(cli.quiet);
        cli
    }

    /// The host-profiling spec the flags ask for (`HostProfile::default()`
    /// — off — when neither `--host-profile` nor `--heartbeat` is given).
    pub fn host_spec(&self) -> HostProfile {
        HostProfile {
            enabled: self.host_profile || self.heartbeat > 0.0,
            heartbeat_secs: self.heartbeat,
            expected_events: 0,
        }
    }

    /// The benchmark suite selected by the flags.
    pub fn suite(&self) -> Vec<Box<dyn Workload>> {
        let all = if self.quick { quick_suite() } else { paper_suite() };
        match &self.only {
            None => all,
            Some(name) => all
                .into_iter()
                .filter(|w| w.name().eq_ignore_ascii_case(name))
                .collect(),
        }
    }

    /// The CMP-count sweep (paper: 2, 4, 8, 16).
    pub fn sweep(&self) -> Vec<u16> {
        self.nodes.clone().unwrap_or_else(|| vec![2, 4, 8, 16])
    }

    /// Worker threads to use: `--jobs` if given, else the host's available
    /// parallelism.
    pub fn jobs(&self) -> usize {
        self.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        })
    }
}

/// Memoizing run cache so figures that need the same baselines don't
/// re-simulate them. Keys are structured ([`RunKey`]), not Debug strings.
#[derive(Default)]
pub struct Runner {
    cache: HashMap<RunKey, RunResult>,
    check: bool,
    threads: u16,
    host: HostProfile,
    /// Host profiles in first-run order (one per unique profiled run).
    profiles: Vec<(RunKey, HostProfileData)>,
}

impl Runner {
    /// Creates an empty cache.
    pub fn new() -> Runner {
        Runner::default()
    }

    /// Creates a runner honouring the CLI's `--check` flag (every
    /// simulation, prewarmed or on-demand, then runs with the protocol
    /// invariant checker attached, and a violation aborts the figure),
    /// its `--threads` flag (every simulation whose spec doesn't set its
    /// own count runs on that many intra-run workers), and its
    /// `--host-profile`/`--heartbeat` flags (host profiles are collected
    /// per run; see [`Runner::export_host_profile`]).
    pub fn for_cli(cli: &Cli) -> Runner {
        Runner {
            cache: HashMap::new(),
            check: cli.check,
            threads: cli.threads,
            host: cli.host_spec(),
            profiles: Vec::new(),
        }
    }

    /// The spec as this runner will actually execute it: the runner-wide
    /// intra-run thread count applied unless the spec sets its own. Both
    /// [`Runner::prewarm`] and [`Runner::run`] key the cache on this, so
    /// prewarmed cells are always hits for the reporting pass.
    fn effective(&self, spec: &RunSpec) -> RunSpec {
        let mut spec = spec.clone();
        if spec.threads == 0 {
            spec.threads = self.threads;
        }
        if !spec.host.is_on() {
            spec.host = self.host.clone();
        }
        spec
    }

    /// Executes `plan` across `jobs` threads and absorbs every result into
    /// the cache. Subsequent [`Runner::run`] calls for those cells are
    /// cache hits, so the reporting pass stays strictly serial and ordered
    /// while the simulations use all cores.
    pub fn prewarm(&mut self, plan: &Plan<'_>, jobs: usize) {
        let plan = plan.with_threads(self.threads).with_host(&self.host);
        let outs = plan.execute_collect(jobs, self.check);
        for (key, (result, profile)) in plan.keys().zip(outs) {
            if let Some(p) = profile {
                if !self.cache.contains_key(&key) {
                    self.profiles.push((key.clone(), p));
                }
            }
            self.cache.entry(key).or_insert(result);
        }
    }

    /// Runs (or returns the cached result of) `workload` under `spec`.
    pub fn run(&mut self, workload: &dyn Workload, spec: &RunSpec) -> RunResult {
        let spec = self.effective(spec);
        let key = RunKey::new(workload, &spec);
        if let Some(r) = self.cache.get(&key) {
            return r.clone();
        }
        let started = std::time::Instant::now();
        let (r, profile) = par::run_cell_full(workload, &spec, self.check);
        host_note!(
            "  [ran {} {} @{} CMPs in {:.1}s: {} cycles]",
            workload.name(),
            spec.mode,
            spec.nodes,
            started.elapsed().as_secs_f64(),
            r.exec_cycles
        );
        if let Some(p) = profile {
            self.profiles.push((key.clone(), p));
        }
        self.cache.insert(key, r.clone());
        r
    }

    /// Display name of a profiled run, e.g. `SOR_slipstream_8n_t4`.
    fn profile_name(key: &RunKey) -> String {
        format!("{}_{}_{}n_t{}", key.name, key.mode, key.nodes, key.threads)
    }

    /// Host profiles collected so far, with display names, in first-run
    /// order.
    pub fn host_profiles(&self) -> Vec<(String, &HostProfileData)> {
        self.profiles.iter().map(|(k, p)| (Runner::profile_name(k), p)).collect()
    }

    /// Renders collected host profiles (tables on stderr, honours
    /// `--quiet`) and, when `--host-profile DIR` was given, writes
    /// `DIR/host_profile.json`. Call once after the figure's reporting
    /// pass; a no-op when profiling was off.
    ///
    /// # Panics
    ///
    /// Panics if the export directory can't be created or written.
    pub fn export_host_profile(&self, cli: &Cli) {
        if self.profiles.is_empty() {
            return;
        }
        for (key, p) in &self.profiles {
            host_note!("host profile {}:\n{}", Runner::profile_name(key), p.render_table());
        }
        let Some(dir) = &cli.host_profile_dir else {
            return;
        };
        let named = self.host_profiles();
        let path = write_host_profile_json(dir, &named);
        eprintln!("wrote {path} ({} runs)", named.len());
    }

    /// Single-mode baseline at `nodes` CMPs.
    pub fn single(&mut self, w: &dyn Workload, nodes: u16) -> RunResult {
        self.run(w, &RunSpec::new(nodes, ExecMode::Single))
    }

    /// Double-mode run at `nodes` CMPs.
    pub fn double(&mut self, w: &dyn Workload, nodes: u16) -> RunResult {
        self.run(w, &RunSpec::new(nodes, ExecMode::Double))
    }

    /// Slipstream run with the given configuration.
    pub fn slipstream(&mut self, w: &dyn Workload, nodes: u16, slip: SlipstreamConfig) -> RunResult {
        self.run(w, &RunSpec::new(nodes, ExecMode::Slipstream).with_slip(slip))
    }

    /// Execution cycles of the better of single and double mode (the
    /// paper's "next best mode" baseline).
    pub fn best_conventional(&mut self, w: &dyn Workload, nodes: u16) -> u64 {
        let s = self.single(w, nodes).exec_cycles;
        let d = self.double(w, nodes).exec_cycles;
        s.min(d)
    }
}

/// Writes `DIR/host_profile.json` from named host profiles — the
/// versioned export ([`slipstream_core::HOST_PROFILE_SCHEMA`]) shared by
/// the figure binaries (via [`Runner::export_host_profile`]) and
/// `bench_sim`. Returns the path written.
///
/// # Panics
///
/// Panics if the directory can't be created or the file can't be written.
pub fn write_host_profile_json(dir: &str, runs: &[(String, &HostProfileData)]) -> String {
    std::fs::create_dir_all(dir).expect("create host-profile directory");
    let rows: Vec<String> = runs
        .iter()
        .map(|(name, p)| {
            // Splice a name field into the profile's flat JSON object.
            let body = p.to_json();
            format!("{{\"name\":\"{name}\",{}", &body[1..])
        })
        .collect();
    let json = format!(
        "{{\"schema\":\"{}\",\"runs\":[{}]}}\n",
        slipstream_core::HOST_PROFILE_SCHEMA,
        rows.join(",")
    );
    let path = format!("{dir}/host_profile.json");
    std::fs::write(&path, json).expect("write host_profile.json");
    path
}

/// A workload re-labelled with a distinct name.
///
/// The run cache ([`Runner`]) and plan dedup ([`Plan`]) identify
/// simulations by `(name, spec)`; a study that varies the *problem size*
/// of one workload (e.g. `fig_scaling`'s weak-scaled SOR) wraps each size
/// so differently-sized runs never collide in the cache.
pub struct Renamed<W: Workload> {
    name: String,
    inner: W,
}

impl<W: Workload> Renamed<W> {
    /// Wraps `inner` under `name`.
    pub fn new(name: impl Into<String>, inner: W) -> Renamed<W> {
        Renamed { name: name.into(), inner }
    }
}

impl<W: Workload> Workload for Renamed<W> {
    fn name(&self) -> &str {
        &self.name
    }

    fn small_l2(&self) -> bool {
        self.inner.small_l2()
    }

    fn instantiate(
        &self,
        ntasks: usize,
        layout: &mut slipstream_prog::Layout,
    ) -> slipstream_core::TaskBuilderFn {
        self.inner.instantiate(ntasks, layout)
    }
}

/// The run a single-run binary (`inspect`, `trace`) was asked for.
pub struct RunArgs {
    /// The selected benchmark, at paper or `--quick` size.
    pub workload: Box<dyn Workload>,
    /// Node count, execution mode and slipstream configuration.
    pub spec: RunSpec,
}

/// Parses the arguments every single-run binary shares:
/// `<BENCH> <NODES> <single|double|slip> [--quick] [--ar L1|L0|G1|G0]
/// [--si]`. Other flags are left to the caller. Every value must be one
/// the binaries know: a missing or unknown benchmark, node count, mode or
/// `--ar` label is an error, never a default.
pub fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let positional = |i: usize, what: &str| {
        args.get(i)
            .filter(|a| !a.starts_with("--"))
            .ok_or_else(|| format!("missing {what}"))
    };
    let quick = args.iter().any(|a| a == "--quick");
    let name = positional(0, "<BENCH>")?;
    let workload = slipstream_workloads::by_name(name, quick)
        .ok_or_else(|| format!("unknown benchmark {name}"))?;
    let nodes = positional(1, "<NODES>")?;
    let nodes: u16 = nodes
        .parse()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("node count must be a positive integer, got {nodes}"))?;
    let mode = match positional(2, "<single|double|slip>")?.as_str() {
        "single" => ExecMode::Single,
        "double" => ExecMode::Double,
        "slip" => ExecMode::Slipstream,
        other => return Err(format!("unknown mode {other} (expected single, double or slip)")),
    };
    let ar = match flag_value(args, "--ar")? {
        None => ArSyncMode::OneTokenGlobal,
        Some(v) => ArSyncMode::ALL
            .into_iter()
            .find(|m| m.label() == v)
            .ok_or_else(|| format!("unknown --ar {v} (expected L1, L0, G1 or G0)"))?,
    };
    let slip = if args.iter().any(|a| a == "--si") {
        SlipstreamConfig::with_self_invalidation(ar)
    } else {
        SlipstreamConfig::prefetch_only(ar)
    };
    Ok(RunArgs { workload, spec: RunSpec::new(nodes, mode).with_slip(slip) })
}

/// The value following `flag` in `args`, or `None` when the flag is
/// absent. A flag given as the last argument, with no value, is an error.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v)),
            None => Err(format!("{flag} requires a value")),
        },
    }
}

/// Prints `usage` and the benchmark names to stderr and exits with
/// status 2 (bad invocation).
pub fn exit_usage(usage: &str) -> ! {
    eprintln!("usage: {usage}");
    let names: Vec<String> = quick_suite().iter().map(|w| w.name().to_string()).collect();
    eprintln!("benchmarks: {}", names.join(", "));
    std::process::exit(2);
}

/// Prints a row of `f64` cells after a left-justified label.
pub fn print_row(label: &str, cells: &[f64]) {
    print!("{label:<12}");
    for c in cells {
        print!(" {c:>8.3}");
    }
    println!();
}

/// Prints a header row.
pub fn print_header(label: &str, cols: &[String]) {
    print!("{label:<12}");
    for c in cols {
        print!(" {c:>8}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<RunArgs, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_run_args(&args)
    }

    #[test]
    fn run_args_accept_every_documented_value() {
        let a = parse("SOR 8 slip --quick").expect("valid");
        assert_eq!(a.workload.name(), "SOR");
        assert_eq!((a.spec.nodes, a.spec.mode), (8, ExecMode::Slipstream));
        assert_eq!(a.spec.slip, SlipstreamConfig::prefetch_only(ArSyncMode::OneTokenGlobal));
        for (word, mode) in [
            ("single", ExecMode::Single),
            ("double", ExecMode::Double),
            ("slip", ExecMode::Slipstream),
        ] {
            assert_eq!(parse(&format!("CG 2 {word}")).expect(word).spec.mode, mode);
        }
        for ar in ArSyncMode::ALL {
            let line = format!("sor 4 slip --ar {ar}");
            let a = parse(&line).expect(&line);
            assert_eq!(a.spec.slip, SlipstreamConfig::prefetch_only(ar));
        }
        let a = parse("SOR 4 slip --ar G0 --si").expect("valid");
        let si = SlipstreamConfig::with_self_invalidation(ArSyncMode::ZeroTokenGlobal);
        assert_eq!(a.spec.slip, si);
        assert_eq!(parse("SOR 1 single").expect("one node").spec.nodes, 1);
    }

    #[test]
    fn run_args_reject_unknown_or_missing_values() {
        for (line, why) in [
            ("", "missing <BENCH>"),
            ("--quick", "missing <BENCH>"),
            ("NOPE 4 slip", "unknown benchmark NOPE"),
            ("SOR", "missing <NODES>"),
            ("SOR eight slip", "node count must be a positive integer, got eight"),
            ("SOR 0 slip", "node count must be a positive integer, got 0"),
            ("SOR 70000 slip", "node count must be a positive integer, got 70000"),
            ("SOR 4", "missing <single|double|slip>"),
            ("SOR 4 --quick", "missing <single|double|slip>"),
            ("SOR 4 slipstream", "unknown mode slipstream (expected single, double or slip)"),
            ("SOR 4 slip --ar", "--ar requires a value"),
            ("SOR 4 slip --ar G2", "unknown --ar G2 (expected L1, L0, G1 or G0)"),
        ] {
            assert_eq!(parse(line).err().as_deref(), Some(why), "{line:?}");
        }
    }
}
