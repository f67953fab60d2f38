//! Host clock and the span recorder.
//!
//! The benchmark measures each layer from outside: it wraps calls into the
//! workspace crates' public functions in spans (name, label, start, end,
//! parent). Spans are kept in memory and written once, when the run ends.
//! A span's self time is its duration minus the part of it that its child
//! spans cover.

use serde::Serialize;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

// The benchmark's only host-clock reads: it times library calls from
// outside, and no report reads the result.
#[allow(clippy::disallowed_types)]
// dismem-lint: allow(wall-clock) — benchmark timing, never report-affecting
type HostClock = std::time::Instant;

static EPOCH: OnceLock<HostClock> = OnceLock::new();

/// Seconds since the benchmark first read the clock (`main` reads it first).
#[allow(clippy::disallowed_methods)]
pub fn now_s() -> f64 {
    EPOCH.get_or_init(HostClock::now).elapsed().as_secs_f64()
}

/// One recorded call into a layer.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Layer and operation, e.g. `profiler.level2`.
    pub name: String,
    /// What the call worked on, e.g. the workload name.
    pub label: String,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Turns span recording on or off (untraced passes record nothing).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The innermost open span on this thread, for handing to worker threads.
pub fn current() -> Option<u64> {
    OPEN.with(|open| open.borrow().last().copied())
}

/// Runs `f` inside a span whose parent is the innermost open span on this
/// thread.
pub fn span<R>(name: &str, label: &str, f: impl FnOnce() -> R) -> R {
    span_under(current(), name, label, f)
}

/// Runs `f` inside a span with an explicit parent (a span opened on another
/// thread).
pub fn span_under<R>(parent: Option<u64>, name: &str, label: &str, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    OPEN.with(|open| open.borrow_mut().push(id));
    let start_s = now_s();
    let out = f();
    let end_s = now_s();
    OPEN.with(|open| open.borrow_mut().pop());
    SPANS.lock().expect("span list poisoned").push(Span {
        id,
        parent,
        name: name.to_string(),
        label: label.to_string(),
        start_s,
        end_s,
    });
    out
}

/// Every span recorded so far, in start order.
pub fn spans() -> Vec<Span> {
    let mut spans = SPANS.lock().expect("span list poisoned").clone();
    spans.sort_by(|a, b| a.start_s.total_cmp(&b.start_s).then(a.id.cmp(&b.id)));
    spans
}

/// Sum of the durations of the spans called `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_s)
        .sum()
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (children on worker threads may overlap each other).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_s, s.end_s));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start_s;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_s));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.id, s.duration_s() - covered)
        })
        .collect()
}

#[derive(Serialize)]
struct SpanFile {
    /// Self time summed per span name.
    self_s_by_name: BTreeMap<String, f64>,
    /// Duration summed per span name.
    total_s_by_name: BTreeMap<String, f64>,
    spans: Vec<Span>,
}

/// Writes every span, with per-name self and total times, as JSON.
pub fn write_span_file(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut self_s_by_name: BTreeMap<String, f64> = BTreeMap::new();
    let mut total_s_by_name: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        *self_s_by_name.entry(s.name.clone()).or_default() += selfs[&s.id];
        *total_s_by_name.entry(s.name.clone()).or_default() += s.duration_s();
    }
    let file = SpanFile {
        self_s_by_name,
        total_s_by_name,
        spans: spans.to_vec(),
    };
    let json = serde_json::to_string(&file).map_err(|e| std::io::Error::other(e.to_string()))?;
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_s: f64, end_s: f64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            label: String::new(),
            start_s,
            end_s,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, None, 0.0, 10.0),
            span(2, Some(1), 1.0, 5.0),
            span(3, Some(1), 3.0, 7.0),
            span(4, Some(2), 2.0, 3.0),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[&1] - 4.0).abs() < 1e-12);
        assert!((selfs[&2] - 3.0).abs() < 1e-12);
        assert!((selfs[&3] - 4.0).abs() < 1e-12);
        assert!((selfs[&4] - 1.0).abs() < 1e-12);
    }
}
