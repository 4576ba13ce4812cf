//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a simulator layer. Nothing is written until [`Spans::to_json`] is
//! called at exit.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: a name, start and end (ns since the recorder was
/// made), the span that encloses it, and the run-set item it belongs to.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    item: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::new()
    }
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span, and returns its result with the span's length in
    /// seconds.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        item: &str,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            item: item.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// [`Spans::timed`] without the duration.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        item: &str,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        self.timed(name, item, f).0
    }

    /// How many spans are open now.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes, at the current time, the spans a call that panicked left
    /// open above `depth`; the spans that enclose the call stay open.
    pub fn close_to(&mut self, depth: usize) {
        let now = self.now_ns();
        while self.open.len() > depth {
            let id = self.open.pop().expect("open span above depth");
            self.spans[id].end_ns = now;
        }
    }

    /// Each span's self time: its length minus the time its direct
    /// children cover (children of one span never overlap, since the
    /// benchmark is single-threaded).
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Total self time per span name, in seconds.
    pub fn self_seconds_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *by_name.entry(s.name).or_insert(0.0) += ns as f64 * 1e-9;
        }
        by_name
    }

    /// Total length of the spans named `name`, children included, in
    /// seconds.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .sum()
    }

    /// All spans as a JSON array, with ids, parents and self times.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"item\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}{}\n",
                s.name,
                s.item.replace('\\', "\\\\").replace('"', "\\\""),
                s.start_ns,
                s.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new();
        spans.span("outer", "x", |s| {
            s.span("inner", "x", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let self_ns = spans.self_ns();
        assert_eq!(spans.spans[1].parent, Some(0));
        assert!(self_ns[1] >= 5_000_000);
        assert_eq!(
            self_ns[0],
            spans.spans[0].duration_ns() - spans.spans[1].duration_ns()
        );
    }

    #[test]
    fn a_panicking_item_leaves_the_enclosing_span_open() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let mut spans = Spans::new();
        spans.span("pass", "p", |s| {
            for item in ["a", "b"] {
                let depth = s.depth();
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    s.span("item", item, |s| {
                        s.span("run", item, |_| {
                            if item == "a" {
                                panic!("deadlock")
                            }
                        })
                    })
                }));
                s.close_to(depth);
                assert_eq!(s.depth(), 1);
            }
        });
        let parents: Vec<_> = spans.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("pass", None),
                ("item", Some(0)),
                ("run", Some(1)),
                ("item", Some(0)),
                ("run", Some(3)),
            ]
        );
        assert!(spans.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(
            spans.self_ns()[0],
            spans.spans[0].duration_ns()
                - spans.spans[1].duration_ns()
                - spans.spans[3].duration_ns()
        );
    }
}
