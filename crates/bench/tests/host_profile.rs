//! Differential tests for host-side telemetry (`RunSpec::host`): profiling
//! observes the simulator, it never steers it. A profiled run must be
//! bit-identical to an unprofiled one — the full [`RunResult`], the trace
//! event stream, and the protocol checker's observations — on both engines
//! (serial `threads = 0` and PDES `threads >= 1`).

use slipstream_core::{
    run, run_full, run_observed, ArSyncMode, ExecMode, HostProfile, RunSpec,
    SlipstreamConfig, TraceConfig, Workload,
};
use slipstream_workloads::quick_suite;

fn profiled(spec: &RunSpec) -> RunSpec {
    spec.clone().with_host_profile(HostProfile::enabled())
}

fn ctx(w: &dyn Workload, spec: &RunSpec) -> String {
    format!("{} {:?} @{} CMPs, threads {}", w.name(), spec.mode, spec.nodes, spec.threads)
}

/// Full quick suite × both engines (`threads ∈ {0, 1, 2, 4}`): turning
/// profiling on changes no simulated number.
#[test]
fn profiling_is_result_invariant_over_quick_suite() {
    let slip = SlipstreamConfig::with_self_invalidation(ArSyncMode::OneTokenGlobal);
    for w in &quick_suite() {
        for threads in [0u16, 1, 2, 4] {
            let spec =
                RunSpec::new(4, ExecMode::Slipstream).with_slip(slip).with_threads(threads);
            let plain = run(w.as_ref(), &spec);
            let out = run_full(w.as_ref(), &profiled(&spec));
            assert_eq!(plain, out.result, "{} diverged under profiling", ctx(w.as_ref(), &spec));
            assert!(out.profile.is_some(), "{} returned no profile", ctx(w.as_ref(), &spec));
        }
    }
}

/// Every execution mode stays invariant too (one workload; the suite
/// sweep above covers the workload axis).
#[test]
fn profiling_is_result_invariant_over_modes() {
    let w = slipstream_workloads::by_name("SOR", true).expect("quick SOR");
    let slip = SlipstreamConfig::prefetch_only(ArSyncMode::OneTokenGlobal);
    for mode in [ExecMode::Single, ExecMode::Double, ExecMode::Slipstream] {
        for threads in [0u16, 2] {
            let spec = RunSpec::new(4, mode).with_slip(slip).with_threads(threads);
            let plain = run(w.as_ref(), &spec);
            let out = run_full(w.as_ref(), &profiled(&spec));
            assert_eq!(plain, out.result, "{} diverged under profiling", ctx(w.as_ref(), &spec));
        }
    }
}

/// With full tracing enabled alongside profiling, the merged event stream
/// is unchanged: records, interval samples, access counters, drop counts.
#[test]
fn profiling_preserves_trace_stream() {
    for w in quick_suite().iter().take(3) {
        for threads in [0u16, 2] {
            let spec = RunSpec::new(4, ExecMode::Slipstream)
                .with_trace(TraceConfig::full(10_000))
                .with_threads(threads);
            let plain = run_full(w.as_ref(), &spec);
            let (plain_r, plain_t) = (plain.result, plain.trace.expect("traced"));
            let out = run_full(w.as_ref(), &profiled(&spec));
            let t = out.trace.expect("traced");
            let c = ctx(w.as_ref(), &spec);
            assert_eq!(plain_r, out.result, "{c} diverged under profiling");
            assert_eq!(plain_t.records, t.records, "{c} records");
            assert_eq!(plain_t.counts, t.counts, "{c} counts");
            assert_eq!(plain_t.hot, t.hot, "{c} hot lines");
            assert_eq!(plain_t.samples, t.samples, "{c} samples");
            assert_eq!(plain_t.dropped, t.dropped, "{c} dropped");
            assert_eq!(plain_t.end_cycle, t.end_cycle, "{c} end cycle");
            assert_eq!(plain_t.queue_total_pushed, t.queue_total_pushed, "{c} queue pushes");
            assert_eq!(plain_t.queue_high_water, t.queue_high_water, "{c} queue high water");
        }
    }
}

/// The protocol checker sees the identical run: same verdict, same
/// observation counts, with or without profiling.
#[test]
fn profiling_preserves_checker_verdict() {
    for w in quick_suite().iter().take(3) {
        for threads in [0u16, 2] {
            let spec = RunSpec::new(4, ExecMode::Slipstream).with_threads(threads);
            let (plain_r, plain_report) = slipstream_check::run_checked(w.as_ref(), &spec);

            let (out, checker) = run_observed(
                w.as_ref(),
                &profiled(&spec),
                slipstream_check::ProtocolChecker::new(),
            );
            let report = checker.finish();

            assert_eq!(plain_r, out.result, "{} diverged under profiling", ctx(w.as_ref(), &spec));
            assert_eq!(plain_report.ok(), report.ok(), "{}", ctx(w.as_ref(), &spec));
            // CheckCounts has no PartialEq; its Debug form pins every field.
            assert_eq!(
                format!("{:?}", plain_report.counts),
                format!("{:?}", report.counts),
                "{} checker observations diverged under profiling",
                ctx(w.as_ref(), &spec)
            );
        }
    }
}

/// The collected profile itself is coherent: worker count matches the
/// engine, event totals match the run, queue traffic was observed, and the
/// imbalance ratio is a max/mean (so never below 1 once measured).
#[test]
fn profile_data_is_sane() {
    let w = slipstream_workloads::by_name("SOR", true).expect("quick SOR");

    let serial = RunSpec::new(4, ExecMode::Slipstream);
    let out = run_full(w.as_ref(), &profiled(&serial));
    let p = out.profile.expect("serial profile");
    assert_eq!(p.engine, "serial");
    assert_eq!(p.workers.len(), 1);
    assert_eq!(p.events, out.result.host_events);
    assert!(p.queue.total_pushed > 0, "no queue traffic observed");
    assert!(p.imbalance_ratio() >= 1.0);
    assert!(!p.resources.is_empty(), "contention resources missing");
    assert!(p.to_json().contains(slipstream_core::HOST_PROFILE_SCHEMA));

    let pdes = RunSpec::new(4, ExecMode::Slipstream).with_threads(2);
    let out = run_full(w.as_ref(), &profiled(&pdes));
    let p = out.profile.expect("pdes profile");
    assert_eq!(p.engine, "pdes");
    assert_eq!(p.workers.len(), 2, "one entry per PDES worker");
    let worker_events: u64 = p.workers.iter().map(|ws| ws.events).sum();
    assert_eq!(worker_events, out.result.host_events);
    assert!(p.workers.iter().all(|ws| ws.epochs > 0), "PDES workers ran epochs");
    assert!(p.queue.total_pushed > 0, "no queue traffic observed");
    assert!(p.imbalance_ratio() >= 1.0);
}
