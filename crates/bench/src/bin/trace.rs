//! Full observability capture for one run: structured event trace,
//! interval metrics, and the hot-line profile — plus a determinism check
//! that the traced run is bit-identical to an untraced one.
//!
//! Usage: `trace <BENCH> <NODES> <single|double|slip> [--quick]
//!         [--ar L1|L0|G1|G0] [--si] [--interval N] [--top K] [--out DIR]`
//!
//! Writes to `--out DIR` (default `results/trace`):
//!
//! * `trace.json` — Chrome `trace_event` JSON; open at <https://ui.perfetto.dev>
//! * `events.jsonl` — the same events as line-delimited JSON records
//! * `metrics.jsonl` — interval metrics (one object per `--interval` cycles)
//! * `hotlines.txt` — top-K lines by coherence activity
//!
//! After capturing, the same spec is re-run untraced and the two
//! [`RunResult`]s are compared; a mismatch means tracing perturbed the
//! simulation and the process exits nonzero (CI runs this as a smoke
//! test). See docs/observability.md for the schemas.
use slipstream_bench::{exit_usage, flag_value, parse_run_args, RunArgs};
use slipstream_core::{run, run_full, RunSpec, TraceConfig};

const USAGE: &str = "trace <BENCH> <NODES> <single|double|slip> [--quick] \
                     [--ar L1|L0|G1|G0] [--si] [--interval N] [--top K] [--out DIR]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fail = |e: String| -> ! {
        eprintln!("trace: {e}");
        exit_usage(USAGE)
    };
    let RunArgs { workload: w, spec } = parse_run_args(&args).unwrap_or_else(|e| fail(e));
    let flag = |name: &str| flag_value(&args, name).unwrap_or_else(|e| fail(e));
    let parse_num = |name: &str, default: u64| -> u64 {
        flag(name).map_or(default, |v| {
            v.parse().unwrap_or_else(|_| fail(format!("{name} requires a number, got {v}")))
        })
    };
    let interval = parse_num("--interval", 10_000);
    let top_k = parse_num("--top", 32) as usize;
    let out_dir = flag("--out").unwrap_or("results/trace");

    let cfg = TraceConfig { top_k, ..TraceConfig::full(interval) };
    let spec = spec.with_trace(cfg);
    let out = run_full(w.as_ref(), &spec);
    let (result, data) = (out.result, out.trace.expect("trace config is enabled"));

    std::fs::create_dir_all(out_dir).expect("create output directory");
    let write = |file: &str, contents: String| {
        let path = format!("{out_dir}/{file}");
        std::fs::write(&path, contents).expect("write output file");
        println!("wrote {path}");
    };
    write("trace.json", data.chrome_trace_json());
    write("events.jsonl", data.events_jsonl());
    write("metrics.jsonl", data.metrics_jsonl());
    write("hotlines.txt", data.hotline_report(top_k));

    println!(
        "{}: {} events recorded ({} dropped), {} samples, \
         {} lines profiled, queue pushed={} peak={}",
        result,
        data.records.len(),
        data.dropped,
        data.samples.len(),
        data.hot.len(),
        data.queue_total_pushed,
        data.queue_high_water,
    );

    // Determinism check: tracing must be observation-only. Re-run the
    // exact spec untraced and require a bit-identical result.
    let untraced = run(w.as_ref(), &RunSpec { trace: TraceConfig::default(), ..spec });
    if untraced != result {
        eprintln!("DETERMINISM VIOLATION: traced and untraced runs differ");
        eprintln!("  traced:   {} cycles, {} recoveries", result.exec_cycles, result.recoveries);
        eprintln!("  untraced: {} cycles, {} recoveries", untraced.exec_cycles, untraced.recoveries);
        std::process::exit(1);
    }
    println!("determinism check passed: traced run identical to untraced run");
}
