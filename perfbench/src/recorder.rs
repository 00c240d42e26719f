//! In-memory span and call recording for one benchmark pass.
//!
//! A [`Recorder`] is shared (behind an `Arc`) by the benchmark's own code and every
//! [`Timed`](crate::timed::Timed) backend of a pass. Output checks are
//! always counted; spans and per-call statistics are recorded only when
//! the recorder traces. Everything stays in memory until the pass ends.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Sentinel for "no enclosing span".
const NO_PARENT: usize = usize::MAX;

/// One benchmark-level span: a call into a layer made from the benchmark.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`"scheduler"`, `"fleet"`, `"sweep"`, ...).
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// One `SlsBackend` call seen by a timed wrapper (a leaf span plus the
/// counters its report carries).
#[derive(Debug, Clone, Default)]
pub struct Call {
    /// Role of the wrapped backend (`"host"`, `"channel"`, `"cluster"`,
    /// `"node"`, `"tiered"`).
    pub role: &'static str,
    /// Enclosing benchmark-level span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end: u64,
    /// Lookups handed to the backend.
    pub lookups: u64,
    /// Of those, lookups sent to SSD-tier server indices.
    pub ssd_lookups: u64,
    /// Simulated cycles of the call (the slowest shard for multi-shard
    /// calls).
    pub cycles: u64,
    /// DRAM reads in the call's reports.
    pub reads: u64,
    /// DRAM row hits.
    pub row_hits: u64,
    /// DRAM row misses plus conflicts.
    pub row_other: u64,
    /// RankCache hits.
    pub cache_hits: u64,
    /// RankCache misses.
    pub cache_misses: u64,
    /// DRAM-engine loop iterations the call cost (exact).
    pub loop_iters: u64,
}

impl Call {
    /// Host duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

/// Spans, calls and check counters of one pass.
#[derive(Debug)]
pub struct Recorder {
    tracing: bool,
    epoch: Instant,
    current: AtomicUsize,
    spans: Mutex<Vec<Span>>,
    calls: Mutex<Vec<Call>>,
    attempted: AtomicU64,
    failed: AtomicU64,
    failures: Mutex<Vec<String>>,
}

impl Recorder {
    /// A recorder that traces when `tracing` is set.
    pub fn new(tracing: bool) -> Self {
        Self {
            tracing,
            epoch: Instant::now(),
            current: AtomicUsize::new(NO_PARENT),
            spans: Mutex::new(Vec::new()),
            calls: Mutex::new(Vec::new()),
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            failures: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans and call statistics are recorded.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The span backend calls made now belong to.
    pub fn current_parent(&self) -> Option<usize> {
        match self.current.load(Ordering::SeqCst) {
            NO_PARENT => None,
            id => Some(id),
        }
    }

    /// Runs `f` inside a span named `name`. The benchmark calls one layer
    /// at a time, so the span is the parent of every backend call `f`
    /// makes, on any thread. Without tracing `f` just runs.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.tracing {
            return f();
        }
        let parent = self.current_parent();
        let id = {
            let mut spans = self.spans.lock().expect("span log poisoned");
            spans.push(Span {
                name,
                start: self.now(),
                end: 0,
                parent,
            });
            spans.len() - 1
        };
        self.current.store(id, Ordering::SeqCst);
        let out = f();
        self.current
            .store(parent.unwrap_or(NO_PARENT), Ordering::SeqCst);
        self.spans.lock().expect("span log poisoned")[id].end = self.now();
        out
    }

    /// Records one backend call (tracing only).
    pub fn push_call(&self, call: Call) {
        self.calls.lock().expect("call log poisoned").push(call);
    }

    /// Counts one output check; `ok == false` counts it failed and keeps
    /// `what` for the report.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted.fetch_add(1, Ordering::SeqCst);
        if !ok {
            self.failed.fetch_add(1, Ordering::SeqCst);
            self.failures
                .lock()
                .expect("failure log poisoned")
                .push(what());
        }
    }

    /// `(attempted, failed)` checks so far.
    pub fn checks(&self) -> (u64, u64) {
        (
            self.attempted.load(Ordering::SeqCst),
            self.failed.load(Ordering::SeqCst),
        )
    }

    /// Descriptions of the failed checks.
    pub fn failures(&self) -> Vec<String> {
        self.failures.lock().expect("failure log poisoned").clone()
    }

    /// All recorded spans.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// All recorded backend calls.
    pub fn calls(&self) -> Vec<Call> {
        self.calls.lock().expect("call log poisoned").clone()
    }
}

/// Total length of the union of `intervals`, clipped to `[lo, hi)`.
pub fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time (seconds) summed over the spans named `name`: each span's
/// duration minus the part of it covered by its child spans and calls.
pub fn self_secs(spans: &[Span], calls: &[Call], name: &str) -> f64 {
    let mut total = 0;
    for (id, span) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
        let children: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start, s.end))
            .chain(
                calls
                    .iter()
                    .filter(|c| c.parent == Some(id))
                    .map(|c| (c.start, c.end)),
            )
            .collect();
        total += (span.end - span.start) - covered(children, span.start, span.end);
    }
    total as f64 * 1e-9
}

/// Summed duration (seconds) of the spans named `name`.
pub fn span_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) as f64 * 1e-9)
        .fold(0.0, |a, b| a + b)
}

/// Indices of the spans named `name`.
pub fn span_ids(spans: &[Span], name: &str) -> Vec<usize> {
    (0..spans.len())
        .filter(|&i| spans[i].name == name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        assert_eq!(covered(vec![(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered(vec![(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(covered(vec![], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![Span {
            name: "scheduler",
            start: 0,
            end: 100,
            parent: None,
        }];
        let call = |start, end| Call {
            parent: Some(0),
            start,
            end,
            ..Call::default()
        };
        let calls = vec![call(10, 40), call(30, 50), call(90, 120)];
        // Covered: [10, 50) and [90, 100) = 50 of 100.
        assert!((self_secs(&spans, &calls, "scheduler") - 50e-9).abs() < 1e-15);
    }
}
