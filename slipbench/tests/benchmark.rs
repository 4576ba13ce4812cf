//! Tests of the benchmark's own accounting and output checks, run at
//! [`Size::TINY`] so they finish in seconds.

use slipbench::checks::{repeat_mismatches, sim_digest, Outcome, Tally};
use slipbench::runset::{Kind, Size};
use slipbench::{measure, Report};
use slipstream::gen::corpus::{mutant_entry, CORPUS_SEED};
use slipstream::workloads::Sor;
use slipstream::{run, ExecMode, RunResult, RunSpec, Workload};

fn sor_result() -> RunResult {
    run(&Sor::quick(), &RunSpec::new(2, ExecMode::Slipstream))
}

fn outcome(r: RunResult) -> Outcome {
    Outcome {
        results: vec![r],
        report: String::new(),
    }
}

#[test]
fn deadlocked_mutant_is_one_failed_run() {
    let w = mutant_entry(CORPUS_SEED, 1);
    let mut tally = Tally::default();
    let out = tally.attempt(w.name(), || Ok(run(&w, &RunSpec::new(4, ExecMode::Single))));
    assert!(out.is_none());
    assert_eq!((tally.failed, tally.attempted), (1, 1));
    assert!(
        tally.failures[0].contains("panicked"),
        "{:?}",
        tally.failures
    );

    // The sweep carries on: the next run is attempted and counted.
    tally.attempt("next", || Ok(()));
    assert_eq!((tally.failed, tally.attempted), (1, 2));
}

type Edit = Box<dyn Fn(&mut RunResult)>;

#[test]
fn sim_digest_changes_with_any_simulated_field() {
    let base = sor_result();
    let digest = |r: &RunResult| sim_digest([&outcome(r.clone())]);
    let d0 = digest(&base);
    let edits: Vec<(&str, Edit)> = vec![
        ("name", Box::new(|r| r.name.push('x'))),
        ("mode", Box::new(|r| r.mode = ExecMode::Double)),
        ("nodes", Box::new(|r| r.nodes += 1)),
        ("tasks", Box::new(|r| r.tasks += 1)),
        ("exec_cycles", Box::new(|r| r.exec_cycles += 1)),
        ("recoveries", Box::new(|r| r.recoveries += 1)),
        ("stream finish", Box::new(|r| r.streams[1].finish += 1)),
        (
            "stream breakdown",
            Box::new(|r| r.streams[0].breakdown.ar_sync += 1),
        ),
        ("stream count", Box::new(|r| r.streams.truncate(1))),
        ("mem.l1_hits", Box::new(|r| r.mem.l1_hits += 1)),
        ("mem.net_messages", Box::new(|r| r.mem.net_messages += 1)),
        ("mem.class", Box::new(|r| r.mem.class.reads.a_timely += 1)),
        (
            "mem.contention",
            Box::new(|r| r.mem.contention.dir_ctl.wait_cycles += 1),
        ),
    ];
    for (field, edit) in edits {
        let mut r = base.clone();
        edit(&mut r);
        assert_ne!(digest(&r), d0, "changing {field} left the digest unchanged");
    }

    // Host-side work is not simulated.
    let host = RunResult {
        host_events: base.host_events + 1,
        ..base.clone()
    };
    assert_eq!(digest(&host), d0);
    // Report text (diagnostics, validation) is part of the digest.
    let with_report = Outcome {
        results: vec![base.clone()],
        report: "x".into(),
    };
    assert_ne!(sim_digest([&with_report]), d0);
}

#[test]
fn repeat_check_flags_a_differing_repeat() {
    let a = outcome(sor_result());
    let mut changed = a.clone();
    changed.results[0].exec_cycles += 1;
    let first = vec![Some(a.clone()), Some(a.clone()), None];
    assert!(repeat_mismatches(&first, &first).is_empty());
    let repeat = vec![Some(a.clone()), Some(changed), None];
    assert_eq!(repeat_mismatches(&first, &repeat), vec![1]);
    // A run that failed is counted once, by the attempt, not again here.
    let failed = vec![None, Some(a.clone()), None];
    assert!(repeat_mismatches(&first, &failed).is_empty());
}

#[test]
fn one_and_two_workers_agree_on_small_sor() {
    let report = measure(Kind::Scale256, Size::TINY, CORPUS_SEED, 1.0, true);
    assert!(report.correct(), "{:?}", report.tally.failures);
    // serial + 1-worker legs, twice (untraced, traced), plus the 2-worker leg.
    assert_eq!(report.tally.attempted, 5);
    let k2_busy = report
        .metrics
        .iter()
        .find(|m| m.name == "pdes.k2.busy_s")
        .unwrap();
    assert!(k2_busy.value > 0.0);
}

/// The `name` values of one metric list of `BENCHMARK.json`.
fn listed(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn printed(report: &Report) -> Vec<String> {
    report.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let workloads = listed(&json, "workloads");
    assert_eq!(workloads, Kind::ALL.map(|k| k.name().to_string()));
    let valid = |n: &str| {
        !n.is_empty()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for kind in Kind::ALL {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = measure(kind, Size::TINY, CORPUS_SEED, 0.1, trace);
            assert!(
                report.correct(),
                "{} trace={trace}: {:?}",
                kind.name(),
                report.tally.failures
            );
            let names = printed(&report);
            for n in &names {
                assert!(valid(n), "bad metric name {n}");
            }
            assert_eq!(names, listed(&json, key), "{} trace={trace}", kind.name());
            assert!(report.metrics.iter().all(|m| m.value.is_finite()));
            let line = report.json_line();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
        }
    }
}
