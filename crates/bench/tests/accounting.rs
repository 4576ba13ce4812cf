//! Suite-wide accounting invariants: for every quick benchmark and every
//! execution mode, each stream's time breakdown accounts for its finish
//! cycle exactly, the access counters add up, and enabling tracing leaves
//! the result bit-identical.

use slipstream_core::{run_full, ExecMode, RunSpec, SlipstreamConfig, StreamRole, TraceConfig};

#[test]
fn quick_suite_accounting_invariants() {
    for w in slipstream_workloads::quick_suite() {
        for mode in [ExecMode::Single, ExecMode::Double, ExecMode::Slipstream] {
            let spec = RunSpec::new(2, mode)
                .with_slip(SlipstreamConfig::default())
                .with_trace(TraceConfig { hotlines: true, ..TraceConfig::default() });
            let out = run_full(w.as_ref(), &spec);
            let (r, data) = (out.result, out.trace);
            let ctx = format!("{} {mode}", w.name());

            // Time accounting: exact, stream by stream.
            for s in &r.streams {
                assert_eq!(
                    s.breakdown.total(),
                    s.finish,
                    "{ctx}: breakdown != finish for {:?} on {}",
                    s.role,
                    s.cpu
                );
            }
            let max_finish = r
                .streams
                .iter()
                .filter(|s| s.role != StreamRole::A)
                .map(|s| s.finish)
                .max()
                .unwrap_or(0);
            assert_eq!(r.exec_cycles, max_finish, "{ctx}: exec_cycles");

            // Access accounting: every data access resolves as exactly one
            // of L1 hit, L2 hit, or L2 miss; merged misses are a subset of
            // misses. Checked against the recorder's independent counters.
            let c = data.expect("trace enabled").counts;
            assert_eq!(c.l1_hits, r.mem.l1_hits, "{ctx}");
            assert_eq!(c.l2_hits, r.mem.l2_hits, "{ctx}");
            assert_eq!(c.miss_new + c.miss_merged, r.mem.l2_misses, "{ctx}");
            assert_eq!(c.miss_merged, r.mem.merged_misses, "{ctx}");
            assert_eq!(
                c.data_accesses(),
                r.mem.l1_hits + r.mem.l2_hits + r.mem.l2_misses,
                "{ctx}: hit/miss identity"
            );

            // Tracing is observation only.
            let untraced = run_full(w.as_ref(), &RunSpec { trace: TraceConfig::default(), ..spec });
            assert!(untraced.trace.is_none());
            assert_eq!(untraced.result, r, "{ctx}: traced run must be bit-identical");
        }
    }
}
