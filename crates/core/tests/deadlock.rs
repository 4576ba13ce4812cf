//! A deadlocked workload is reported to the caller on every engine: the
//! serial loop, one PDES worker on the caller's thread, and PDES workers
//! on threads of their own.

use std::panic::{catch_unwind, AssertUnwindSafe};

use slipstream_core::{run, ExecMode, RunSpec, TaskBuilderFn, Workload};
use slipstream_prog::{EventId, Layout, ProgBuilder};

/// Two tasks: task 0 computes and ends, task 1 waits on an event nobody
/// posts.
struct LostWakeup;

impl Workload for LostWakeup {
    fn name(&self) -> &str {
        "lost-wakeup"
    }

    fn instantiate(&self, _ntasks: usize, _layout: &mut Layout) -> TaskBuilderFn {
        Box::new(|_layout, _inst, task| {
            let mut b = ProgBuilder::new();
            b.compute(100);
            if task == 1 {
                b.wait(EventId(0));
            }
            b.build("lost-wakeup")
        })
    }
}

#[test]
fn deadlock_is_reported_on_every_engine() {
    for threads in [0u16, 1, 2] {
        let spec = RunSpec::new(2, ExecMode::Single).with_threads(threads);
        let outcome = catch_unwind(AssertUnwindSafe(|| run(&LostWakeup, &spec)));
        let payload = outcome.expect_err("a run with a lost wakeup must not finish");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(msg.contains("deadlock"), "threads {threads}: {msg:?}");
    }
}
