//! Speedup gates for the sweep fast path and the placement kernel.
//!
//! - The optimized sweep (`observation::measure`) on the fast grid must
//!   be at least 5× faster than the reference sweep (`measure_naive`).
//! - DLS through the placement kernel on a 300-task DAG over 1,000
//!   homogeneous hosts must be at least 10× faster than its naive scan.
//!
//! Wall time cannot be gated in the regular test run: a shared or debug
//! build cannot hold these ratios. The test is therefore ignored by
//! default and refuses to run unoptimized. Run it by hand, on an
//! otherwise idle machine, with
//!
//! ```text
//! cargo test --release --test kernel_speedup -- --ignored --nocapture
//! ```
//!
//! That the fast paths compute the same results is checked on every
//! test run: `observation::tests::fast_measure_matches_naive` for the
//! sweep and `fast_kernel_equiv::host_scaling_fast_kernel_matches_naive`
//! for the kernel.

use rsg::core::curve::CurveConfig;
use rsg::core::observation::{measure, measure_naive, ObservationGrid};
use rsg::core::THRESHOLD_LADDER;
use rsg::prelude::*;
use rsg::sched::ExecutionContext;
use std::hint::black_box;
use std::time::Instant;

/// Refinement rounds of the timed sweeps.
const REFINE_ROUNDS: u32 = 2;

/// Runs of `f` per second: one untimed warm-up, then repeats until at
/// least 3 runs and `min_s` seconds have accumulated.
fn runs_per_second(mut f: impl FnMut(), min_s: f64) -> f64 {
    f();
    let mut runs = 0u32;
    let t0 = Instant::now();
    loop {
        f();
        runs += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        if runs >= 3 && elapsed >= min_s {
            return f64::from(runs) / elapsed;
        }
    }
}

#[test]
#[ignore = "timing gate: cargo test --release --test kernel_speedup -- --ignored"]
fn fast_paths_hold_their_speedups() {
    if cfg!(debug_assertions) {
        panic!("the speedup gates only hold for an optimized build; run with --release");
    }

    let grid = ObservationGrid::fast();
    let cfg = CurveConfig::default();
    let t0 = Instant::now();
    let naive = measure_naive(&grid, &cfg, &THRESHOLD_LADDER, REFINE_ROUNDS);
    let naive_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let fast = measure(&grid, &cfg, &THRESHOLD_LADDER, REFINE_ROUNDS);
    let fast_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        fast, naive,
        "the optimized sweep diverged from the reference"
    );
    let sweep_speedup = naive_s / fast_s;
    eprintln!("sweep: naive {naive_s:.2} s, fast {fast_s:.2} s, {sweep_speedup:.2}x");

    let dag = RandomDagSpec {
        size: 300,
        ccr: 0.1,
        parallelism: 0.6,
        density: 0.5,
        regularity: 0.5,
        mean_comp: 20.0,
    }
    .generate(11);
    let rc = ResourceCollection::homogeneous(1000, 1500.0);
    let ctx = ExecutionContext::new(&dag, &rc);
    let fast_per_s = runs_per_second(
        || {
            black_box(HeuristicKind::Dls.run(black_box(&ctx)));
        },
        0.2,
    );
    let naive_per_s = runs_per_second(
        || {
            black_box(HeuristicKind::Dls.run_reference(black_box(&ctx)));
        },
        0.2,
    );
    let dls_speedup = fast_per_s / naive_per_s;
    eprintln!("DLS, 1k hosts: fast {fast_per_s:.1}/s, naive {naive_per_s:.1}/s, {dls_speedup:.1}x");

    assert!(
        sweep_speedup >= 5.0,
        "end-to-end sweep speedup {sweep_speedup:.2}x is below the required 5x"
    );
    assert!(
        dls_speedup >= 10.0,
        "DLS kernel speedup at 1k hosts is {dls_speedup:.1}x, below the required 10x"
    );
}
