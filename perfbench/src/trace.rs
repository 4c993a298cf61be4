//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around each call into a public
//! function of the program; the program itself is not instrumented.
//! Each span holds its name, start, end, parent and request id. Spans
//! stay in memory and are written out as TSV when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    /// Summed duration of the direct children.
    child_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration minus the part covered by direct children. Children
    /// run one after another on the span's thread, so their durations
    /// never overlap.
    pub fn self_ns(&self) -> u64 {
        self.duration_ns().saturating_sub(self.child_ns)
    }
}

pub struct Tracer {
    /// A disabled tracer runs the same code and records nothing: the
    /// untraced baseline the tracing overhead is measured against.
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request: self.request,
            child_ns: 0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        if let Some(p) = parent {
            self.spans[p].child_ns += end_ns - start_ns;
        }
        out
    }

    /// Self times of every span named `name`, milliseconds.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.self_ns() as f64 / 1e6)
            .collect()
    }

    /// Durations of every span named `name`, milliseconds.
    pub fn duration_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Summed duration of every span named `name`, milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.duration_ms(name).iter().sum()
    }

    /// Summed self time of every span named `name`, milliseconds.
    pub fn total_self_ms(&self, name: &str) -> f64 {
        self.self_ms(name).iter().sum()
    }

    /// Summed duration of the spans named `name`, per request id,
    /// milliseconds.
    pub fn per_request_ms(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.request).or_insert(0.0) += s.duration_ns() as f64 / 1e6;
        }
        out
    }

    /// All spans as TSV: index, name, start, end, parent, request.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("# span\tname\tstart_ns\tend_ns\tparent\trequest\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}
