//! `train`: the observation sweep behind `rsg train` — the paper's
//! offline cost. `observation::measure` on a grid shaped like
//! `ObservationGrid::fast()` (144 cells × 3 instances, the six-threshold
//! ladder, 2 refinement rounds). The placement kernel, DAG generation
//! and knee refinement do all the work; no serving layer runs.

use crate::trace::Tracer;
use crate::{median, percentile, secs, Args, Report, Rng};
use rsg_core::curve::CurveConfig;
use rsg_core::observation::{measure, measure_naive, KneeTable, ObservationGrid};
use rsg_core::THRESHOLD_LADDER;
use rsg_obs::RunReport;
use std::time::Instant;

/// Timed set-ups per run; `setup_s` is their median. One takes about 15 ms,
/// so a short host stall moves a single one by half.
const SETUPS: usize = 25;

const REFINE_ROUNDS: u32 = 2;

/// The fast grid with its CCR, α and β values jittered by the seed
/// within the fast grid's ranges; axis lengths, sizes, density, mean
/// cost and instance count stay as they are.
fn grid(seed: u64) -> ObservationGrid {
    let mut g = ObservationGrid::fast();
    let mut rng = Rng::new(seed ^ 0x6A1D);
    for c in &mut g.ccrs {
        *c = (*c * rng.range(0.9, 1.1)).clamp(0.01, 1.0);
    }
    for a in &mut g.alphas {
        *a = (*a + rng.range(-0.02, 0.02)).clamp(0.3, 0.9);
    }
    for b in &mut g.betas {
        *b = (*b + rng.range(-0.02, 0.02)).clamp(0.01, 1.0);
    }
    g
}

/// A digest of every knee of every table, bit for bit.
fn digest(tables: &[KneeTable]) -> u64 {
    let mut bytes = Vec::new();
    for t in tables {
        bytes.extend_from_slice(&t.theta.to_bits().to_le_bytes());
        for k in t.knees() {
            bytes.extend_from_slice(&k.to_bits().to_le_bytes());
        }
    }
    rsg_core::store::fnv1a(&bytes)
}

/// The golden knee-table digest for this seed's grid, from the
/// unoptimized reference sweep `measure_naive`; computed once per build
/// and seed, then cached.
fn golden(seed: u64, grid: &ObservationGrid, cfg: &CurveConfig) -> u64 {
    let path = crate::cache_path(&format!("train-golden-seed{seed}"));
    if let Some(d) = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| u64::from_str_radix(s.trim(), 16).ok())
    {
        return d;
    }
    let started = Instant::now();
    let d = digest(&measure_naive(grid, cfg, &THRESHOLD_LADDER, REFINE_ROUNDS));
    eprintln!(
        "rsg-perfbench: golden from measure_naive in {:.1} s",
        secs(started)
    );
    let _ = std::fs::write(&path, format!("{d:016x}\n"));
    d
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let cfg = CurveConfig::default();
    let (grid, setup_s) = crate::timed_setups(SETUPS, || {
        let g = grid(args.seed);
        // Warm the thread spawns, allocator and placement-kernel
        // scratch paths on the tiny grid.
        std::hint::black_box(measure(
            &ObservationGrid::tiny(),
            &cfg,
            &THRESHOLD_LADDER,
            REFINE_ROUNDS,
        ));
        g
    });
    let cells = grid.cells() as f64;

    if args.trace {
        traced(&mut report, args, &grid, &cfg);
        return report;
    }

    let mut walls = Vec::new();
    let mut digests = Vec::new();
    let started = Instant::now();
    while walls.is_empty() || secs(started) < args.seconds {
        let t = Instant::now();
        let tables = measure(&grid, &cfg, &THRESHOLD_LADDER, REFINE_ROUNDS);
        walls.push(secs(t));
        digests.push(digest(&tables));
    }
    let rss = crate::peak_rss_mb();
    let want = golden(args.seed, &grid, &cfg);
    for (i, d) in digests.iter().enumerate() {
        report.check(*d == want, || {
            format!(
                "sweep {i}: knee tables {d:016x} differ from the measure_naive golden {want:016x}"
            )
        });
    }
    let rates: Vec<f64> = walls.iter().map(|w| cells / w).collect();
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    report.metric("ops_per_s", median(&rates));
    report.metric("p50_ms", median(&ms));
    report.metric("p95_ms", percentile(&ms, 0.95));
    report.metric("setup_s", median(&setup_s));
    report.metric("peak_rss_mb", rss);
    report.figure("train_cells_per_s", median(&rates), "1/s");
    report.figure("sweep_p50_ms", median(&ms), "ms");
    report.figure("sweeps", ms.len() as f64, "count");
    report.figure("setup_s", median(&setup_s), "s");
    report.figure("peak_rss_mb", rss, "MiB");
    report
}

/// Milliseconds the `rsg-obs` span `path` recorded between two
/// captures.
fn phase_ms(before: &RunReport, after: &RunReport, path: &str) -> f64 {
    let get = |r: &RunReport| r.span(path).map_or(0, |s| s.total_ns);
    (get(after) - get(before)) as f64 / 1e6
}

/// The traced run's sweeps, `true` for traced: untraced, traced,
/// traced, untraced, so neither side alone pays the first sweep's heap
/// growth.
const SWEEPS: [bool; 4] = [false, true, true, false];

fn traced(report: &mut Report, args: &Args, grid: &ObservationGrid, cfg: &CurveConfig) {
    let want = golden(args.seed, grid, cfg);
    let mut tr = Tracer::new(true);
    let mut untraced_ms = Vec::new();
    let mut runs = Vec::new();
    let (mut sweep, mut generate, mut evaluate, mut knees) = (0.0, 0.0, 0.0, 0.0);
    for (k, traced) in SWEEPS.into_iter().enumerate() {
        rsg_obs::enable(traced);
        let before = RunReport::capture();
        let started = Instant::now();
        let tables = if traced {
            tr.set_request(k as u64);
            tr.span("measure", |_| {
                measure(grid, cfg, &THRESHOLD_LADDER, REFINE_ROUNDS)
            })
        } else {
            measure(grid, cfg, &THRESHOLD_LADDER, REFINE_ROUNDS)
        };
        let ms = secs(started) * 1e3;
        rsg_obs::enable(false);
        report.check(digest(&tables) == want, || {
            format!("sweep {k} of the traced run differs from the measure_naive golden")
        });
        if !traced {
            untraced_ms.push(ms);
            continue;
        }
        let after = RunReport::capture();
        sweep += phase_ms(&before, &after, "sweep");
        generate += phase_ms(&before, &after, "sweep/generate");
        evaluate += phase_ms(&before, &after, "sweep/evaluate");
        knees += phase_ms(&before, &after, "sweep/knees");
        runs.push(crate::counter_delta(
            &before.counters.into_iter().collect(),
            &after.counters.into_iter().collect(),
        ));
    }

    // The program's own phase spans cover the sweep but for the ladder
    // set-up, the curve reduction and the table assembly.
    let unattributed = (sweep - generate - evaluate - knees) / sweep;
    report.check(unattributed <= crate::UNATTRIBUTED_TOLERANCE, || {
        format!("the sweep's phases leave {unattributed:.3} of it unattributed")
    });
    // Per-operation times: a phase's wall time over the operations the
    // program counted in it, on both threads.
    let total = |name: &str| {
        runs.iter()
            .map(|r| r.get(name).copied().unwrap_or(0))
            .sum::<u64>()
    };
    let per_op = |ms: f64, ops: u64| if ops == 0 { 0.0 } else { ms / ops as f64 };
    let traced_sweeps = runs.len();
    let refines = (traced_sweeps * grid.cells() * THRESHOLD_LADDER.len()) as u64;
    report.metric(
        "dag.random.generate_ms",
        per_op(generate, total("core.sweep.dags_generated")),
    );
    report.metric(
        "sched.schedule_ms",
        per_op(evaluate, total("core.sweep.ladder_evals")),
    );
    report.metric("core.knee.refine_ms", per_op(knees, refines));
    let traced_ms = tr.duration_ms("measure");
    report.metric("trace.e2e_ms", median(&traced_ms));
    report.metric(
        "trace.overhead_ms",
        median(&traced_ms) - median(&untraced_ms),
    );
    report.metric("trace.unattributed_share", unattributed);
    report.figure("sweep_generate_ms", generate / traced_sweeps as f64, "ms");
    report.figure("sweep_evaluate_ms", evaluate / traced_sweeps as f64, "ms");
    report.figure("sweep_knees_ms", knees / traced_sweeps as f64, "ms");
    crate::record_counters(
        report,
        &runs,
        &[
            "sched.placements",
            "sched.schedules_evaluated",
            "sched.placement.fast_kernel",
            "sched.kernel.scratch_builds",
            "sched.kernel.scratch_hits",
            "core.sweep.dags_generated",
            "core.sweep.ladder_evals",
            "core.sweep.refine_evals",
            "core.sweep.memo_hits",
        ],
    );
    crate::write_trace(args, "sweep", &tr.to_tsv());
    crate::write_trace(args, "sweep-phases", &RunReport::capture().to_tsv());
}
