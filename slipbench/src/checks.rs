//! Failure accounting and the output checks: every simulation runs inside
//! [`Tally::attempt`], repeats must equal the first repeat, and
//! [`sim_digest`] fingerprints everything simulated.

use std::panic::{catch_unwind, AssertUnwindSafe};

use slipstream::RunResult;

/// What one run-set item produced: its simulated results, plus the
/// `Debug` text of any check report whose content is simulated or static
/// (cross-validation reports, diagnostics).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Outcome {
    pub results: Vec<RunResult>,
    pub report: String,
}

/// Runs counted against runs attempted.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Runs `f` as one attempted run. A panic (a deadlocked simulation,
    /// a protocol fault) or an `Err` from a correctness check counts as
    /// one failed run, and the caller carries on with the next.
    pub fn attempt<T>(&mut self, label: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let err = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(value)) => return Some(value),
            Ok(Err(msg)) => msg,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                format!("panicked: {msg}")
            }
        };
        self.failures.push(format!("{label}: {err}"));
        self.failed += 1;
        None
    }

    /// Marks a run that completed as failed by a check made after it
    /// (repeat or engine disagreement).
    pub fn fail_completed(&mut self, label: &str, why: &str) {
        self.failures.push(format!("{label}: {why}"));
        self.failed += 1;
    }

    /// Failed runs as a share of runs attempted.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A hash of every simulated field of every outcome, in run-set order.
/// `host_events` is left out: it counts the simulator's own work and
/// differs between engines. Going through `Debug` covers every field,
/// including ones added later, with no list to keep in step.
pub fn sim_digest<'a>(outcomes: impl IntoIterator<Item = &'a Outcome>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for o in outcomes {
        for r in &o.results {
            let simulated = RunResult {
                host_events: 0,
                ..r.clone()
            };
            h = fnv1a(h, format!("{simulated:?}").as_bytes());
        }
        h = fnv1a(h, o.report.as_bytes());
    }
    h
}

/// Indices of the items whose repeat differs from the first repeat.
pub fn repeat_mismatches(first: &[Option<Outcome>], repeat: &[Option<Outcome>]) -> Vec<usize> {
    first
        .iter()
        .zip(repeat)
        .enumerate()
        .filter(|(_, (a, b))| matches!((a, b), (Some(a), Some(b)) if a != b))
        .map(|(i, _)| i)
        .collect()
}
