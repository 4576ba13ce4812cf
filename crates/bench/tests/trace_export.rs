//! Byte stability of the exported trace formats.
//!
//! `events_jsonl()` and `chrome_trace_json()` are consumed by external
//! tools (jq pipelines, Perfetto), so their bytes are pinned for one small
//! serial traced run: SOR on a 32 x 32 grid, 2 nodes, slipstream with
//! self-invalidation. That is small enough to keep the goldens
//! reviewable and still records misses, fills, directory transitions,
//! interventions, invalidations, transparent replies, SI hints and
//! actions, barriers, session ends and interval samples. Any change to
//! the record vocabulary, its field order, or the order in which
//! observations are recorded shows up here. Changing them is fine but
//! must be deliberate — re-bless the goldens with
//! `BLESS=1 cargo test -p slipstream-bench --test trace_export`.

use slipstream_core::{run_full, ArSyncMode, ExecMode, RunSpec, SlipstreamConfig, TraceConfig};
use slipstream_workloads::Sor;

fn traced_sor() -> slipstream_core::TraceData {
    let w = Sor { n: 32, iters: 2, ..Sor::quick() };
    let spec = RunSpec::new(2, ExecMode::Slipstream)
        .with_slip(SlipstreamConfig::with_self_invalidation(ArSyncMode::OneTokenGlobal))
        .with_trace(TraceConfig::full(10_000));
    run_full(&w, &spec).trace.expect("trace config is enabled")
}

fn check_golden(file: &str, actual: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR")))
            .expect("create golden directory");
        std::fs::write(&path, actual).expect("bless golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file (bless with BLESS=1)");
    if actual != golden {
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "{file} drifted from the golden (first difference at line {}; \
             {} vs {} bytes); if intended, re-bless with BLESS=1",
            line + 1,
            actual.len(),
            golden.len()
        );
    }
}

#[test]
fn exported_trace_bytes_match_golden() {
    let data = traced_sor();
    assert!(data.dropped == 0 && !data.records.is_empty(), "the pinned run records every event");
    check_golden("trace_sor_events.jsonl", &data.events_jsonl());
    check_golden("trace_sor_chrome.json", &data.chrome_trace_json());
}
