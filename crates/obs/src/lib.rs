//! `rsg-obs` — pipeline observability for the resource-specification
//! generator.
//!
//! The crate provides three sinks and one aggregate:
//!
//! * [`span()`] — lexical wall-clock scopes, nested into `/`-separated
//!   paths per thread, optionally traced live to stderr
//!   ([`set_trace`]);
//! * [`Counter`] — named monotonic counters (placements evaluated, RC
//!   prefixes reused, cache hits, …);
//! * [`TimingHistogram`] — power-of-two nanosecond histograms for
//!   repeated timings (per-heuristic scheduling time, curve-point
//!   evaluation, …);
//! * [`RunReport`] — a snapshot of everything recorded, serializable as
//!   JSON or TSV and printable as a summary table.
//!
//! Everything is **off by default** and zero-cost while off: every
//! record path starts with a single relaxed atomic load and returns
//! immediately, with no clock read and no allocation. Call
//! [`enable`]`(true)` (the CLI does this for `--trace`/`--report`) to
//! start collecting. Counters and histograms are lock-free even when
//! enabled, so the workspace's (cell × instance) rayon stages can
//! record concurrently without serializing; spans take a short global
//! lock only at scope *exit*, which is why hot inner loops use
//! counters/histograms and spans stay coarse (one per pipeline phase).
//!
//! ```
//! use rsg_obs::{span, Counter, RunReport};
//!
//! static ITEMS: Counter = Counter::new("demo.items");
//!
//! rsg_obs::enable(true);
//! {
//!     let _phase = span("demo");
//!     let _step = span("work");
//!     ITEMS.add(2);
//! }
//! let report = RunReport::capture();
//! assert_eq!(report.counter("demo.items"), 2);
//! assert_eq!(report.span("demo/work").unwrap().count, 1);
//! assert!(report.to_json().contains("\"demo.items\": 2"));
//! rsg_obs::enable(false);
//! rsg_obs::reset();
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod report;
pub mod span;

pub use metrics::{BucketCount, Counter, HistogramSnapshot, TimingHistogram};
pub use report::RunReport;
pub use span::{span, SpanGuard, SpanStat};

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACE: AtomicBool = AtomicBool::new(false);

/// Turns collection on or off globally. Off is the default; while off,
/// every record call is a single relaxed load.
pub fn enable(on: bool) {
    if on {
        // Pin the trace epoch to the first moment observability turns
        // on, so `[trace +offset]` lines measure from run start.
        let _ = epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether collection is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns live span tracing (enter/exit lines on stderr) on or off.
/// Implies nothing about collection: combine with [`enable`].
pub fn set_trace(on: bool) {
    TRACE.store(on, Ordering::Relaxed);
}

/// Whether live span tracing is on.
#[inline]
pub fn trace_enabled() -> bool {
    TRACE.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Seconds since the observability epoch (first [`enable`] or first
/// use, whichever came first). Used to stamp trace lines.
pub fn epoch_elapsed_s() -> f64 {
    epoch().elapsed().as_secs_f64()
}

/// Clears all recorded data: zeroes every registered counter and
/// histogram and drops all span aggregates. Registration survives, so
/// metric statics keep working after a reset.
pub fn reset() {
    let r = registry();
    for c in r.counters.lock().unwrap_or_else(|e| e.into_inner()).iter() {
        c.clear();
    }
    for h in r
        .histograms
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
    {
        h.clear();
    }
    r.spans.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Serializes tests that manipulate the global enable flag or assert on
/// global totals. Process-wide; returns a guard to hold for the test's
/// duration. (Doctests run in separate processes and don't need it.)
pub fn test_guard() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

#[derive(Debug, Default)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    threads: BTreeSet<String>,
}

/// The process-wide sink registry. Metric statics self-register on
/// first use; spans aggregate under their path.
pub(crate) struct Registry {
    counters: Mutex<Vec<&'static Counter>>,
    histograms: Mutex<Vec<&'static TimingHistogram>>,
    spans: Mutex<BTreeMap<String, SpanAgg>>,
}

impl Registry {
    pub(crate) fn register_counter(&self, c: &'static Counter) {
        self.counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(c);
    }

    pub(crate) fn register_histogram(&self, h: &'static TimingHistogram) {
        self.histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(h);
    }

    pub(crate) fn record_span(&self, path: &str, ns: u64, thread: &str) {
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        let agg = spans.entry(path.to_string()).or_default();
        if agg.count == 0 {
            agg.min_ns = ns;
            agg.max_ns = ns;
        } else {
            agg.min_ns = agg.min_ns.min(ns);
            agg.max_ns = agg.max_ns.max(ns);
        }
        agg.count += 1;
        agg.total_ns += ns;
        if !agg.threads.contains(thread) {
            agg.threads.insert(thread.to_string());
        }
    }

    pub(crate) fn capture(&self) -> RunReport {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|c| c.get() > 0)
            .map(|c| (c.name().to_string(), c.get()))
            .collect();
        counters.sort();
        let mut histograms: Vec<HistogramSnapshot> = self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|h| h.snapshot())
            .filter(|s| s.count > 0)
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        let spans: Vec<SpanStat> = self
            .spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(path, agg)| SpanStat {
                path: path.clone(),
                count: agg.count,
                total_ns: agg.total_ns,
                min_ns: agg.min_ns,
                max_ns: agg.max_ns,
                threads: agg.threads.len() as u64,
            })
            .collect();
        RunReport {
            spans,
            counters,
            histograms,
        }
    }
}

pub(crate) fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(Vec::new()),
        histograms: Mutex::new(Vec::new()),
        spans: Mutex::new(BTreeMap::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_survives_reuse() {
        let _guard = test_guard();
        static REUSED: Counter = Counter::new("test.lib.reused");
        enable(true);
        REUSED.add(7);
        assert_eq!(RunReport::capture().counter("test.lib.reused"), 7);
        reset();
        assert_eq!(RunReport::capture().counter("test.lib.reused"), 0);
        // Registration survives the reset: the static keeps recording.
        REUSED.add(2);
        assert_eq!(RunReport::capture().counter("test.lib.reused"), 2);
        enable(false);
        reset();
    }

    #[test]
    fn epoch_is_monotonic() {
        let a = epoch_elapsed_s();
        let b = epoch_elapsed_s();
        assert!(b >= a);
        assert!(a >= 0.0);
    }
}
