//! The repository benchmark of the slipstream CMP simulator: three
//! workloads driven through the public API, end-to-end host-time metrics
//! from untraced passes, and per-layer metrics from a separate traced
//! pass. See `README.md` in this directory.

pub mod checks;
pub mod runset;
pub mod spans;

use std::hint::black_box;
use std::time::Instant;

use checks::{repeat_mismatches, sim_digest, Outcome, Tally};
use runset::{Kind, Layers, RunSet, Size};
use spans::Spans;

/// Set-ups timed per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 21;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

pub struct Report {
    pub kind: Kind,
    pub seed: u64,
    /// Untraced passes over the run set.
    pub passes: usize,
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    pub digest: u64,
    /// The traced pass's spans (`--trace 1` only).
    pub spans: Option<Spans>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The last line the benchmark prints.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// One untraced pass: every item once, each timed and counted, with
/// `between` called after each item.
fn untraced_pass(
    set: &RunSet,
    tally: &mut Tally,
    times: &mut [Vec<f64>],
    between: &mut dyn FnMut(),
) -> Vec<Option<Outcome>> {
    set.items
        .iter()
        .enumerate()
        .filter(|(_, item)| !item.traced_only)
        .map(|(i, item)| {
            let t = Instant::now();
            let out = tally.attempt(&item.label, || set.run_item(i));
            times[i].push(t.elapsed().as_secs_f64());
            between();
            out
        })
        .collect()
}

/// Times [`SETUP_REPS`] set-ups spread evenly over the measuring window,
/// between run-set items. On a shared 2-CPU host, set-up speed was seen
/// to switch by up to 1.5x and stay switched for seconds, so set-ups
/// timed back to back all land in one state; spread out, their median
/// samples the same stretch of time as the passes do.
struct SetupClock {
    kind: Kind,
    size: Size,
    seed: u64,
    started: Instant,
    every_s: f64,
    samples: Vec<f64>,
}

impl SetupClock {
    fn new(kind: Kind, size: Size, seed: u64, seconds: f64) -> SetupClock {
        SetupClock {
            kind,
            size,
            seed,
            started: Instant::now(),
            every_s: seconds / SETUP_REPS as f64,
            samples: Vec::with_capacity(SETUP_REPS),
        }
    }

    fn time_one(&mut self) {
        let t = Instant::now();
        let set = RunSet::build(self.kind, self.size, self.seed, &mut Spans::new());
        black_box(set.instantiate_all());
        self.samples.push(t.elapsed().as_secs_f64());
    }

    /// Times every set-up that is due: the k-th halfway through the k-th
    /// slice of the window.
    fn catch_up(&mut self) {
        while self.samples.len() < SETUP_REPS
            && self.started.elapsed().as_secs_f64()
                >= self.every_s * (self.samples.len() as f64 + 0.5)
        {
            self.time_one();
        }
    }

    /// The median set-up time, after timing any set-ups the window was
    /// too short for.
    fn median(mut self) -> f64 {
        while self.samples.len() < SETUP_REPS {
            self.time_one();
        }
        median(&self.samples)
    }
}

/// Marks every item of `repeat` that differs from `first` as failed.
fn check_repeat(
    set: &RunSet,
    first: &[Option<Outcome>],
    repeat: &[Option<Outcome>],
    tally: &mut Tally,
) {
    let labels: Vec<&str> = set
        .items
        .iter()
        .filter(|i| !i.traced_only)
        .map(|i| i.label.as_str())
        .collect();
    for i in repeat_mismatches(first, repeat) {
        tally.fail_completed(labels[i], "result differs from the first repeat");
    }
}

/// Runs one workload's benchmark. `trace == false` makes untraced passes
/// for about `seconds` and reports the end-to-end metrics;
/// `trace == true` makes one untraced and one traced pass and reports the
/// per-layer metrics.
pub fn measure(kind: Kind, size: Size, seed: u64, seconds: f64, trace: bool) -> Report {
    if trace {
        measure_traced(kind, size, seed)
    } else {
        measure_untraced(kind, size, seed, seconds)
    }
}

fn measure_untraced(kind: Kind, size: Size, seed: u64, seconds: f64) -> Report {
    let set = RunSet::build(kind, size, seed, &mut Spans::new());
    let mut setup = SetupClock::new(kind, size, seed, seconds);
    let mut tally = Tally::default();
    let mut times = vec![Vec::new(); set.items.len()];
    let first = untraced_pass(&set, &mut tally, &mut times, &mut || setup.catch_up());
    // Read before the repeats: freed memory the allocator keeps in
    // per-thread arenas would otherwise make the peak grow with the
    // number of passes the host's speed allows.
    let peak_rss = peak_rss_mb();

    let mut passes = 1;
    // Another pass only if it should end inside the window.
    while setup.started.elapsed().as_secs_f64() * (passes + 1) as f64 / passes as f64 <= seconds {
        let repeat = untraced_pass(&set, &mut tally, &mut times, &mut || setup.catch_up());
        check_repeat(&set, &first, &repeat, &mut tally);
        passes += 1;
    }

    // Each item's median over the passes, summed: one pass's wall time
    // with transient host noise filtered out item by item.
    let sweep_s: f64 = times
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| median(t))
        .sum();
    Report {
        kind,
        seed,
        passes,
        metrics: vec![
            metric("sweep_s", sweep_s, "s"),
            metric("setup_s", setup.median(), "s"),
            metric("peak_rss_mb", peak_rss, "MB"),
        ],
        digest: sim_digest(first.iter().flatten()),
        tally,
        spans: None,
    }
}

fn measure_traced(kind: Kind, size: Size, seed: u64) -> Report {
    let mut spans = Spans::new();
    let set = spans.span("setup", kind.name(), |s| RunSet::build(kind, size, seed, s));

    let mut tally = Tally::default();
    let mut times = vec![Vec::new(); set.items.len()];
    let t = Instant::now();
    let untraced = untraced_pass(&set, &mut tally, &mut times, &mut || {});
    let untraced_s = t.elapsed().as_secs_f64();

    let mut layers = Layers::default();
    let mut traced: Vec<Option<Outcome>> = vec![None; set.items.len()];
    // The traced pass's time on the items the untraced pass also runs.
    let mut shared_s = 0.0;
    spans.span("pass", kind.name(), |spans| {
        for (i, item) in set.items.iter().enumerate() {
            let depth = spans.depth();
            let t = Instant::now();
            traced[i] = tally.attempt(&item.label, || set.run_item_traced(i, spans, &mut layers));
            if !item.traced_only {
                shared_s += t.elapsed().as_secs_f64();
            }
            spans.close_to(depth);
        }
    });
    // The unobserved twins of the checked runs are extra runs, not the
    // cost of tracing the runs both passes make.
    let traced_s = shared_s - spans.total_seconds("check.twin");
    let repeat: Vec<Option<Outcome>> = set
        .items
        .iter()
        .zip(&traced)
        .filter(|(item, _)| !item.traced_only)
        .map(|(_, o)| o.clone())
        .collect();
    check_repeat(&set, &untraced, &repeat, &mut tally);
    for &(k1, k2) in &set.engine_pairs {
        if let (Some(a), Some(b)) = (&traced[k1], &traced[k2]) {
            if a != b {
                tally.fail_completed(&set.items[k2].label, "differs from the 1-worker run");
            }
        }
    }

    let metrics = layer_metrics(&layers, &spans, traced_s, untraced_s);
    Report {
        kind,
        seed,
        passes: 1,
        metrics,
        digest: sim_digest(untraced.iter().flatten()),
        tally,
        spans: Some(spans),
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order. A layer the workload
/// does not exercise reads 0.
fn layer_metrics(l: &Layers, spans: &Spans, traced_s: f64, untraced_s: f64) -> Vec<Metric> {
    let by_name = spans.self_seconds_by_name();
    let span_s = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
    let iter_s = span_s("prog.drain");
    let run_s = span_s("core.run");
    let checked_s = span_s("check.checked_run");
    let plain_s = span_s("check.plain_run");
    let mut m = vec![
        metric("workloads.build_s", span_s("workloads.build"), "s"),
        metric("gen.corpus_s", span_s("gen.corpus"), "s"),
        metric("prog.ops", l.prog_ops as f64, "count"),
        metric("prog.iter_s", iter_s, "s"),
        metric(
            "prog.ns_per_op",
            ratio(iter_s * 1e9, l.prog_ops as f64),
            "ns",
        ),
        metric("prog.iter_share", ratio(iter_s, run_s), "ratio"),
        metric("core.run_s", run_s, "s"),
        metric("core.events", l.events as f64, "count"),
        metric(
            "core.ns_per_event",
            ratio(run_s * 1e9, l.events as f64),
            "ns",
        ),
        metric("core.build_s", l.core_build_s, "s"),
        metric("core.simulate_s", l.core_simulate_s, "s"),
        metric("core.serial_s", l.serial_s, "s"),
        metric("core.pdes1_s", l.pdes1_s, "s"),
    ];
    for (k, names) in [
        [
            "pdes.k1.busy_s",
            "pdes.k1.wait_s",
            "pdes.k1.epochs",
            "pdes.k1.imbalance",
        ],
        [
            "pdes.k2.busy_s",
            "pdes.k2.wait_s",
            "pdes.k2.epochs",
            "pdes.k2.imbalance",
        ],
    ]
    .into_iter()
    .enumerate()
    {
        let p = &l.pdes[k];
        m.push(metric(names[0], p.busy_s, "s"));
        m.push(metric(names[1], p.wait_s, "s"));
        m.push(metric(names[2], p.epochs as f64, "count"));
        m.push(metric(names[3], p.imbalance, "ratio"));
    }
    m.extend([
        metric("kernel.queue_pushes", l.queue_pushes as f64, "count"),
        metric(
            "kernel.heap_push_frac",
            ratio(l.heap_pushes as f64, l.queue_pushes as f64),
            "ratio",
        ),
        metric(
            "kernel.queue_high_water",
            l.queue_high_water as f64,
            "count",
        ),
        metric("mem.l1_hits", l.l1_hits as f64, "count"),
        metric("mem.l2_misses", l.l2_misses as f64, "count"),
        metric("mem.remote_txns", l.remote_txns as f64, "count"),
        metric("mem.net_messages", l.net_messages as f64, "count"),
        metric("mem.invalidations", l.invalidations as f64, "count"),
        metric(
            "mem.contention_wait_cycles",
            l.contention_wait_cycles as f64,
            "cycles",
        ),
        metric("sync.barrier_cycles", l.barrier_cycles as f64, "cycles"),
        metric("sync.lock_cycles", l.lock_cycles as f64, "cycles"),
        metric("sync.ar_sync_cycles", l.ar_sync_cycles as f64, "cycles"),
        metric("core.recoveries", l.recoveries as f64, "count"),
        metric(
            "core.a_timely_frac",
            ratio(l.a_timely as f64, l.a_reads as f64),
            "ratio",
        ),
        metric("check.verify_s", span_s("check.verify"), "s"),
        metric("check.analyze_s", span_s("check.analyze"), "s"),
        metric("check.checked_run_s", checked_s, "s"),
        metric("check.xval_s", span_s("check.xval"), "s"),
        metric(
            "check.observer_overhead",
            ratio(checked_s, plain_s),
            "ratio",
        ),
        metric("trace.overhead", ratio(traced_s, untraced_s), "ratio"),
    ]);
    m
}
