//! Differential tests for the conservative parallel engine
//! (`RunSpec::threads`): the worker count is a pure scheduling knob, so
//! every `K >= 1` must produce bit-identical results — the full
//! [`RunResult`], the trace event stream, the protocol checker's
//! observations, and the event stream a caller's observer sees — over the
//! whole quick suite in every execution mode.
//!
//! `threads = 0` (the classic serial loop) is deliberately *not* compared
//! here: the two engines differ in host-side accounting and event
//! interleaving, and each is separately pinned by its own determinism
//! tests.

use slipstream_core::{
    run, run_full, run_observed, ArSyncMode, ExecMode, MemObs, MemObserver, RunSpec,
    SlipstreamConfig, TraceConfig, Workload,
};
use slipstream_kernel::Cycle;
use slipstream_mem::AccessOutcome;
use slipstream_workloads::{quick_suite, Sor};

/// The four execution modes of the benchmark matrix, at `nodes` CMPs.
fn mode_specs(nodes: u16) -> Vec<RunSpec> {
    vec![
        RunSpec::new(nodes, ExecMode::Single),
        RunSpec::new(nodes, ExecMode::Double),
        RunSpec::new(nodes, ExecMode::Slipstream)
            .with_slip(SlipstreamConfig::prefetch_only(ArSyncMode::OneTokenGlobal)),
        RunSpec::new(nodes, ExecMode::Slipstream)
            .with_slip(SlipstreamConfig::with_self_invalidation(ArSyncMode::OneTokenGlobal)),
    ]
}

fn ctx(w: &dyn Workload, spec: &RunSpec, k: u16) -> String {
    format!("{} {:?} @{} CMPs, threads {k}", w.name(), spec.mode, spec.nodes)
}

/// Full quick suite × all four modes: `threads ∈ {2, 3, 4}` reproduce the
/// one-worker result bit for bit — cycles, memory statistics, per-stream
/// breakdowns, recoveries, and the `host_events` counter.
#[test]
fn worker_count_is_result_invariant_over_quick_suite() {
    let suite = quick_suite();
    for w in &suite {
        for spec in mode_specs(4) {
            let one = run(w.as_ref(), &spec.clone().with_threads(1));
            for k in [2u16, 3, 4] {
                let many = run(w.as_ref(), &spec.clone().with_threads(k));
                assert_eq!(one, many, "{} diverged from one worker", ctx(w.as_ref(), &spec, k));
            }
        }
    }
}

/// With full tracing enabled, the merged event stream is also
/// worker-count-invariant: records, access counters, hot-line rankings,
/// interval samples, drop counts, and even the queue lifetime counters
/// (summed over node queues, so deterministic per node).
#[test]
fn traced_runs_are_identical_across_worker_counts() {
    let suite = quick_suite();
    for w in suite.iter().take(3) {
        for mode in [ExecMode::Single, ExecMode::Slipstream] {
            let spec = RunSpec::new(4, mode).with_trace(TraceConfig::full(10_000));
            let one = run_full(w.as_ref(), &spec.clone().with_threads(1));
            let (r1, t1) = (one.result, one.trace.expect("traced"));
            for k in [2u16, 4] {
                let many = run_full(w.as_ref(), &spec.clone().with_threads(k));
                let (rk, tk) = (many.result, many.trace.expect("traced"));
                let c = ctx(w.as_ref(), &spec, k);
                assert_eq!(r1, rk, "{c} RunResult");
                assert_eq!(t1.records, tk.records, "{c} records");
                assert_eq!(t1.counts, tk.counts, "{c} counts");
                assert_eq!(t1.hot, tk.hot, "{c} hot lines");
                assert_eq!(t1.samples, tk.samples, "{c} samples");
                assert_eq!(t1.dropped, tk.dropped, "{c} dropped");
                assert_eq!(t1.end_cycle, tk.end_cycle, "{c} end cycle");
                assert_eq!(t1.queue_total_pushed, tk.queue_total_pushed, "{c} queue pushes");
                assert_eq!(t1.queue_high_water, tk.queue_high_water, "{c} queue high water");
            }
        }
    }
}

/// Epoch-boundary stress: shrinking the window to the minimum legal
/// lookahead (one cycle — the maximum possible number of barriers) and to
/// an odd in-between value cannot change any result. This exercises every
/// cross-epoch hand-off path: events landing exactly on a boundary,
/// streams suspended across barriers, and inbox deliveries racing local
/// work.
#[test]
fn epoch_window_is_result_invariant() {
    let suite = quick_suite();
    for w in suite.iter().take(4) {
        for spec in mode_specs(4) {
            let full = run(w.as_ref(), &spec.clone().with_threads(2));
            for window in [1u64, 7] {
                for k in [2u16, 3] {
                    let tight =
                        run(w.as_ref(), &spec.clone().with_threads(k).with_epoch_window(window));
                    assert_eq!(
                        full,
                        tight,
                        "{} window {window} diverged",
                        ctx(w.as_ref(), &spec, k)
                    );
                }
            }
        }
    }
}

/// The protocol checker observes the merged deterministic event order, so
/// a checked run reports the same (clean) verdict and the same result on
/// any worker count. Uses the canonical checked configurations (the ones
/// the serial differential suite pins): prefetch-only at 4 CMPs and
/// self-invalidation at 2 CMPs.
#[test]
fn checker_verdict_is_worker_count_invariant() {
    let suite = quick_suite();
    let specs = vec![
        RunSpec::new(4, ExecMode::Slipstream)
            .with_slip(SlipstreamConfig::prefetch_only(ArSyncMode::OneTokenGlobal)),
        RunSpec::new(2, ExecMode::Slipstream)
            .with_slip(SlipstreamConfig::with_self_invalidation(ArSyncMode::OneTokenGlobal)),
    ];
    for w in suite.iter().take(3) {
        for spec in &specs {
            let (r1, rep1) = slipstream_check::run_checked(w.as_ref(), &spec.clone().with_threads(1));
            assert!(
                rep1.ok(),
                "{}: checker rejected the one-worker run: {}",
                ctx(w.as_ref(), spec, 1),
                rep1.summary()
            );
            let (r2, rep2) = slipstream_check::run_checked(w.as_ref(), &spec.clone().with_threads(2));
            let c = ctx(w.as_ref(), spec, 2);
            assert!(rep2.ok(), "{c}: checker rejected the two-worker run: {}", rep2.summary());
            assert_eq!(r1, r2, "{c}: checked results diverged");
        }
    }
}

/// Every observation in delivery order.
#[derive(Debug, Default)]
struct Collect(Vec<(Cycle, MemObs)>);

impl MemObserver for Collect {
    fn observe(&mut self, at: Cycle, ev: &MemObs) {
        self.0.push((at, ev.clone()));
    }
}

/// A caller's observer sees every access on both engines, with no trace
/// configured: its access events add up to the memory system's hit and
/// miss counters on the serial loop and at any worker count, and the
/// parallel engine delivers the identical event sequence for every K.
#[test]
fn caller_observer_sees_every_access_on_every_engine() {
    let w = Sor::quick();
    let spec = RunSpec::new(4, ExecMode::Single);
    let mut parallel: Vec<Vec<(Cycle, MemObs)>> = Vec::new();
    for k in [0u16, 1, 2, 3] {
        let (out, seen) = run_observed(&w, &spec.clone().with_threads(k), Collect::default());
        let count = |want: AccessOutcome| {
            let hits = seen.0.iter().filter(
                |(_, ev)| matches!(ev, MemObs::Access { outcome, .. } if *outcome == want),
            );
            hits.count() as u64
        };
        let m = &out.result.mem;
        let c = format!("SOR quick single @4 CMPs, threads {k}");
        assert!(m.l2_hits > 0 && m.l2_misses > 0, "{c}: the run exercises the caches");
        assert_eq!(count(AccessOutcome::L1Hit), m.l1_hits, "{c}: L1 hits");
        assert_eq!(count(AccessOutcome::L2Hit), m.l2_hits, "{c}: L2 hits");
        assert_eq!(
            count(AccessOutcome::MissNew) + count(AccessOutcome::MissMerged),
            m.l2_misses,
            "{c}: L2 misses"
        );
        assert_eq!(count(AccessOutcome::MissMerged), m.merged_misses, "{c}: merged misses");
        if k >= 1 {
            parallel.push(seen.0);
        }
    }
    assert!(parallel[1..].iter().all(|s| *s == parallel[0]), "event sequence depends on K");
}
