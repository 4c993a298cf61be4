//! `rsg-perfbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload spec-dag|live-platform|train --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's inputs from the seed, measures for the given
//! number of seconds, checks every output, and prints one JSON result
//! object as the last line of standard output. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` adds a separate in-process traced run
//! and reports the per-layer metrics instead. The process exits nonzero
//! when any operation failed or any correctness check did not hold.
//! See `README.md` beside this package for the workloads and metrics.

mod live;
mod serving;
mod spec_dag;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Per-layer metrics of the traced run, with units. Every `--trace 1`
/// result carries all of them; a layer that a workload does not run
/// reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.transport_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.http.read_ms", "ms"),
    ("serve.http.write_ms", "ms"),
    ("serve.http.bytes_in", "bytes"),
    ("serve.http.bytes_out", "bytes"),
    ("serve.handle_ms", "ms"),
    ("serve.handlers.self_ms", "ms"),
    ("obs.json.parse_ms", "ms"),
    ("analyze.lint_ms", "ms"),
    ("analyze.delta_lint_ms", "ms"),
    ("dag.io.read_ms", "ms"),
    ("dag.stats_ms", "ms"),
    ("dag.random.generate_ms", "ms"),
    ("core.specgen.generate_us", "us"),
    ("select.render_us", "us"),
    ("core.alternative.negotiate_ms", "ms"),
    ("core.negotiate.attempts.original", "count"),
    ("core.negotiate.attempts.smaller_size", "count"),
    ("core.negotiate.attempts.slower_clock", "count"),
    ("core.negotiate.attempts.wider_het", "count"),
    ("core.push.submit_ms", "ms"),
    ("push.cells_recomputed", "count"),
    ("push.dirty_share", "share"),
    ("core.store.journal_append_ms", "ms"),
    ("sched.schedule_ms", "ms"),
    ("sched.placements", "count"),
    ("sched.schedules_evaluated", "count"),
    ("sched.placement.fast_kernel", "count"),
    ("sched.kernel.scratch_builds", "count"),
    ("sched.kernel.scratch_hits", "count"),
    ("core.knee.refine_ms", "ms"),
    ("core.sweep.dags_generated", "count"),
    ("core.sweep.ladder_evals", "count"),
    ("core.sweep.refine_evals", "count"),
    ("core.sweep.memo_hits", "count"),
    ("delta.lateness_p50_ms", "ms"),
    ("delta.lateness_max_ms", "ms"),
    ("trace.e2e_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.unattributed_share", "share"),
];

/// Work counters that must repeat exactly when the same work runs twice.
/// The scratch-pool split is left out: which pool thread meets which RC
/// prefix first depends on thread scheduling, so only the builds + hits
/// total is exact.
pub const EXACT_COUNTERS: &[&str] = &[
    "core.negotiate.attempts.original",
    "core.negotiate.attempts.smaller_size",
    "core.negotiate.attempts.slower_clock",
    "core.negotiate.attempts.wider_het",
    "push.cells_recomputed",
    "sched.placements",
    "sched.schedules_evaluated",
    "sched.placement.fast_kernel",
    "core.sweep.dags_generated",
    "core.sweep.ladder_evals",
    "core.sweep.refine_evals",
    "core.sweep.memo_hits",
];

/// A traced layer whose self time covers less of the traced end-to-end
/// time than `1 - UNATTRIBUTED_TOLERANCE` fails the run.
pub const UNATTRIBUTED_TOLERANCE: f64 = 0.15;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    /// Reported metrics: end-to-end ones untraced, per-layer ones traced.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Named figures for the summary (the roadmap's names, the open-loop
    /// accounting, the add-up check), printed but not part of the result.
    pub figures: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Counts one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Marks an already counted operation as failed.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn figure(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.figures.push((name, value, unit));
    }
}

/// Splitmix64: a small seeded generator, so inputs depend on the seed
/// alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_5EED_5EED_5EED)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Nearest-rank percentile of an unsorted sample (`q` in `(0, 1]`).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of a sample that may be empty (a layer the workload never
/// runs): 0.
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Seconds of untimed set-ups before the timed ones. On a 2-vCPU VM
/// whose cores sat idle, the first second or so of work runs about 1.5
/// to 2 times slower than what follows, and set-up comes first in a run:
/// timed cold, `setup_s` would measure how long the host idled before the
/// run rather than the set-up.
pub const SETUP_WARMUP_S: f64 = 2.0;

/// Runs `setup` untimed for [`SETUP_WARMUP_S`], then `timed` more times
/// under the clock. Each set-up's state is dropped before the next one
/// starts, so two daemons are never alive at once (their freed memory
/// would pile up and `peak_rss_mb` drift with the set-up count).
/// Returns the last state and the timed durations, seconds.
pub fn timed_setups<T>(timed: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let warm = Instant::now();
    let mut last = None;
    while secs(warm) < SETUP_WARMUP_S {
        drop(last.take());
        last = Some(setup());
    }
    let mut times = Vec::with_capacity(timed);
    for _ in 0..timed.max(1) {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup());
        times.push(secs(started));
    }
    (last.expect("at least one set-up ran"), times)
}

/// The directory the benchmark executable was built into; run-time
/// scratch and caches live below it, inside the checkout.
fn build_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("perfbench/target"))
}

/// A fresh scratch directory for this run's delta journals.
pub fn work_dir(workload: &str) -> PathBuf {
    let dir = build_dir()
        .join("perfbench-work")
        .join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the run's scratch directory");
    dir
}

/// Cache shared by runs of the same build: the knee-table goldens.
/// Entries are keyed by a digest of the executable, so a rebuilt program
/// never reuses a stale entry.
pub fn cache_path(name: &str) -> PathBuf {
    let dir = build_dir().join("perfbench-cache");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{name}-{:016x}", exe_digest()))
}

fn exe_digest() -> u64 {
    static DIGEST: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *DIGEST.get_or_init(|| {
        std::env::current_exe()
            .and_then(std::fs::read)
            .map_or(0, |bytes| rsg_core::store::fnv1a(&bytes))
    })
}

/// Counter totals recorded by `rsg-obs` so far.
pub fn obs_counters() -> BTreeMap<String, u64> {
    rsg_obs::RunReport::capture().counters.into_iter().collect()
}

/// `after - before` for every counter.
pub fn counter_delta(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .collect()
}

/// Reports `names` from the first of several counter deltas, taken
/// around the same work run repeatedly in this process, as per-layer
/// metrics, and checks that every exact counter and the scratch-pool
/// total (builds + hits) read the same in every repetition.
pub fn record_counters(
    report: &mut Report,
    runs: &[BTreeMap<String, u64>],
    names: &[&'static str],
) {
    let get = |run: &BTreeMap<String, u64>, n: &str| run.get(n).copied().unwrap_or(0);
    let takes = |run: &BTreeMap<String, u64>| {
        get(run, "sched.kernel.scratch_builds") + get(run, "sched.kernel.scratch_hits")
    };
    for &name in names {
        report.metric(name, get(&runs[0], name) as f64);
    }
    for (k, run) in runs.iter().enumerate().skip(1) {
        for &name in names.iter().filter(|n| EXACT_COUNTERS.contains(n)) {
            let (a, b) = (get(&runs[0], name), get(run, name));
            report.check(a == b, || {
                format!("work counter {name}: {a} in the first repetition, {b} in repetition {k}")
            });
        }
        if names.contains(&"sched.kernel.scratch_builds") {
            let (a, b) = (takes(&runs[0]), takes(run));
            report.check(a == b, || {
                format!("scratch-pool takes: {a} in the first repetition, {b} in repetition {k}")
            });
        }
    }
}

/// Writes the traced run's spans (TSV) out once the run is over.
pub fn write_trace(args: &Args, part: &str, tsv: &str) {
    let dir = build_dir().join("perfbench-out");
    let path = dir.join(format!(
        "trace-{}-{part}-seed{}.tsv",
        args.workload, args.seed
    ));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tsv)) {
        Ok(()) => eprintln!("rsg-perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!(
            "rsg-perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(
            || "none (not a git checkout)".to_string(),
            |s| s.trim().to_string(),
        )
}

fn env_stamp(args: &Args) -> String {
    use rsg_obs::json::escape;
    format!(
        "{{\"nproc\": {}, \"git_rev\": {}, \"profile\": {}, \"rustc\": {}, \"seed\": {}, \
         \"run_seconds\": {}, \"workload\": {}, \"trace\": {}, \"exe_digest\": \"{:016x}\"}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        escape(&git_rev()),
        escape(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        escape(env!("PERFBENCH_RUSTC_VERSION")),
        args.seed,
        args.seconds,
        escape(&args.workload),
        u8::from(args.trace),
        exe_digest()
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["spec-dag", "live-platform", "train"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (spec-dag | live-platform | train)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rsg-perfbench: {e}");
            eprintln!(
                "usage: rsg-perfbench --workload spec-dag|live-platform|train --seed N \
                 [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let stamp = env_stamp(&args);
    eprintln!("rsg-perfbench: {stamp}");

    let mut report = match args.workload.as_str() {
        "spec-dag" => spec_dag::run(&args),
        "live-platform" => live::run(&args),
        _ => train::run(&args),
    };

    let expected: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        vec![
            ("ops_per_s", "1/s"),
            ("p50_ms", "ms"),
            ("p95_ms", "ms"),
            ("setup_s", "s"),
            ("peak_rss_mb", "MiB"),
        ]
    };
    let mut metrics = Vec::new();
    for (name, unit) in &expected {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            report.fail(format!("metric {name} is not a finite number ({value})"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }

    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    report.figure("failed_share", failed_share, "share");
    for (name, value, unit) in &report.figures {
        eprintln!("  {name:<28} {value:>14.4} {unit}");
    }
    for why in &report.failures {
        eprintln!("  FAILED: {why}");
    }
    let figures: Vec<String> = report
        .figures
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"env\": {stamp}, \"figures\": {{{}}}}}",
        figures.join(", ")
    );
    let correct = report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
